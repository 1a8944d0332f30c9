"""An in-memory reproduction of the Safe Browsing v3 service.

This package implements both sides of the protocol the paper analyzes:

* the **server** (:class:`SafeBrowsingServer`) maintains the provider's
  blacklists as chunked prefix lists, answers update requests and full-hash
  requests, and — crucially for the paper's threat model — records every
  full-hash request it receives (client cookie, timestamp, prefixes) in a
  request log that the analysis layer replays as the provider's view;
* the **client** (:class:`SafeBrowsingClient`) mirrors a browser: it keeps a
  local database of 32-bit prefixes (Bloom filter or delta-coded table),
  refreshes it through the update protocol, and checks URLs with the
  flow-chart of the paper's Figure 3 — canonicalize, decompose, look up the
  local database and, only on a hit, ask the server for full hashes.

The server stack is layered: **storage** (per-list full-hash buckets and
orphan prefixes in :mod:`repro.safebrowsing.database`, persisted by
:mod:`repro.safebrowsing.storage`), **service**
(:class:`ServerCore` with the endpoint handlers in
:mod:`repro.safebrowsing.protocol`, a TTL'd full-hash response cache and a
bounded request log), and **transport** (:class:`Transport` —
:class:`InProcessTransport` for exact direct-call behaviour,
:class:`SimulatedNetworkTransport` for seeded latency/failure injection).

The deployed Google endpoints cannot be (and must not be) contacted by this
reproduction; the substitution is documented in DESIGN.md.  Everything the
privacy analysis needs — which prefixes leave the client, with which cookie,
at which time — is faithfully produced by this in-memory pair.
"""

from repro.safebrowsing.lists import (
    GOOGLE_LISTS,
    YANDEX_LISTS,
    ListDescriptor,
    ListProvider,
    get_list,
    lists_for_provider,
)
from repro.safebrowsing.chunks import Chunk, ChunkKind, ChunkRange
from repro.safebrowsing.cookie import SafeBrowsingCookie, CookieJar
from repro.safebrowsing.database import ListDatabase, ServerDatabase
from repro.safebrowsing.protocol import (
    FullHashRequest,
    FullHashResponse,
    ListUpdate,
    UpdateRequest,
    UpdateResponse,
    Verdict,
    LookupResult,
)
from repro.safebrowsing.server import (
    RequestLogEntry,
    SafeBrowsingServer,
    ServerCore,
    ServerStats,
)
from repro.safebrowsing.transport import (
    InProcessTransport,
    SimulatedNetworkTransport,
    Transport,
    TransportStats,
    build_transport,
)
from repro.safebrowsing.privacy import (
    DummyQueryPolicy,
    NoPolicy,
    OnePrefixAtATimePolicy,
    POLICY_FACTORIES,
    POLICY_KINDS,
    PrefixWideningPolicy,
    PrivacyPolicy,
    QueryMixingPolicy,
    build_policy,
)
from repro.safebrowsing.client import ClientConfig, SafeBrowsingClient
from repro.safebrowsing.backoff import UpdateScheduler
from repro.safebrowsing.snapshot import (
    ListSummary,
    SnapshotInfo,
    inspect_snapshot,
    load_server,
    load_server_database,
    restore_client_snapshot,
    save_client_snapshot,
    save_server_snapshot,
)
from repro.safebrowsing.storage import (
    STORAGE_KINDS,
    MemoryServerStorage,
    SQLiteServerStorage,
    ServerStorage,
    build_server_storage,
    load_sqlite_server_database,
)
from repro.safebrowsing.ingest import (
    IngestionPipeline,
    IngestionProgress,
    IngestStats,
    ListMutation,
    synthetic_additions,
)
from repro.safebrowsing.lookup_api import (
    DomainReputationServer,
    LegacyLookupClient,
    LegacyLookupServer,
)

__all__ = [
    "Chunk",
    "ChunkKind",
    "ChunkRange",
    "ClientConfig",
    "CookieJar",
    "DomainReputationServer",
    "DummyQueryPolicy",
    "LegacyLookupClient",
    "LegacyLookupServer",
    "NoPolicy",
    "OnePrefixAtATimePolicy",
    "POLICY_FACTORIES",
    "POLICY_KINDS",
    "PrefixWideningPolicy",
    "PrivacyPolicy",
    "QueryMixingPolicy",
    "UpdateScheduler",
    "build_policy",
    "FullHashRequest",
    "FullHashResponse",
    "GOOGLE_LISTS",
    "InProcessTransport",
    "IngestionPipeline",
    "IngestionProgress",
    "IngestStats",
    "ListDatabase",
    "ListDescriptor",
    "ListMutation",
    "ListProvider",
    "ListSummary",
    "ListUpdate",
    "LookupResult",
    "MemoryServerStorage",
    "STORAGE_KINDS",
    "SQLiteServerStorage",
    "ServerStorage",
    "RequestLogEntry",
    "SafeBrowsingClient",
    "SafeBrowsingCookie",
    "SafeBrowsingServer",
    "ServerCore",
    "ServerDatabase",
    "ServerStats",
    "SimulatedNetworkTransport",
    "SnapshotInfo",
    "Transport",
    "TransportStats",
    "UpdateRequest",
    "UpdateResponse",
    "Verdict",
    "build_server_storage",
    "build_transport",
    "YANDEX_LISTS",
    "get_list",
    "inspect_snapshot",
    "lists_for_provider",
    "load_server",
    "load_server_database",
    "load_sqlite_server_database",
    "restore_client_snapshot",
    "save_client_snapshot",
    "save_server_snapshot",
    "synthetic_additions",
]
