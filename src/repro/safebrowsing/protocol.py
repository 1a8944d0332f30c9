"""Protocol messages and per-endpoint handlers.

The message shapes follow the Safe Browsing v3 HTTP API, stripped of the
transport details that are irrelevant to the privacy analysis: what matters
is exactly which fields cross the wire, because those fields are what the
provider (the adversary of the paper's threat model) gets to observe.

Besides the messages, this module hosts the *thin endpoint handlers* of the
service layer: :func:`serve_update` and :func:`serve_full_hash` validate one
request each and dispatch it to a
:class:`~repro.safebrowsing.server.ServerCore`.  Every path into the server —
the in-process transport, the simulated network transport, or a direct
``SafeBrowsingServer.handle_*`` call — funnels through these handlers, so
the core only ever sees well-formed requests of the right endpoint.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from repro.exceptions import ProtocolError
from repro.hashing.digests import FullHash
from repro.hashing.prefix import Prefix
from repro.observability.metrics import exported
from repro.safebrowsing.chunks import Chunk, ChunkRange
from repro.safebrowsing.cookie import SafeBrowsingCookie

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (server imports us)
    from collections.abc import Iterable

    from repro.safebrowsing.server import ServerCore


# ---------------------------------------------------------------------------
# update protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ListState:
    """Chunk ranges a client currently holds for one list."""

    list_name: str
    add_chunks: ChunkRange
    sub_chunks: ChunkRange


@dataclass(frozen=True, slots=True)
class UpdateRequest:
    """A client's "download" request: its cookie and per-list chunk state."""

    cookie: SafeBrowsingCookie
    states: tuple[ListState, ...]
    timestamp: float = 0.0

    def state_for(self, list_name: str) -> ListState | None:
        """The client's state for ``list_name``, if advertised."""
        for state in self.states:
            if state.list_name == list_name:
                return state
        return None


@dataclass(frozen=True, slots=True)
class ListUpdate:
    """The server's answer for one list: chunks the client is missing."""

    list_name: str
    add_chunks: tuple[Chunk, ...] = ()
    sub_chunks: tuple[Chunk, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.add_chunks and not self.sub_chunks


@dataclass(frozen=True, slots=True)
class UpdateResponse:
    """Full answer to an :class:`UpdateRequest`."""

    updates: tuple[ListUpdate, ...]
    next_poll_seconds: float = 1800.0
    timestamp: float = 0.0

    def update_for(self, list_name: str) -> ListUpdate | None:
        """The update for ``list_name``, if any."""
        for update in self.updates:
            if update.list_name == list_name:
                return update
        return None


# ---------------------------------------------------------------------------
# full-hash protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FullHashRequest:
    """A "gethash" request.

    This is the message the whole paper is about: it carries the client's
    cookie and the 32-bit prefixes of the URL decompositions that hit the
    local database.
    """

    cookie: SafeBrowsingCookie
    prefixes: tuple[Prefix, ...]
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if not self.prefixes:
            raise ProtocolError("a full-hash request must carry at least one prefix")


@dataclass(frozen=True, slots=True)
class FullHashMatch:
    """One full digest returned for a queried prefix."""

    list_name: str
    prefix: Prefix
    full_hash: FullHash


@dataclass(frozen=True, slots=True)
class FullHashResponse:
    """Answer to a :class:`FullHashRequest`.

    ``matches`` contains every full digest, in every list, whose prefix was
    queried.  A queried prefix with no match at all is an *orphan* from the
    client's point of view (paper Section 7.2).
    """

    matches: tuple[FullHashMatch, ...]
    cache_lifetime_seconds: float = 2700.0
    timestamp: float = 0.0

    def matches_for(self, prefix: Prefix) -> tuple[FullHashMatch, ...]:
        """The matches corresponding to one queried prefix."""
        return tuple(match for match in self.matches if match.prefix == prefix)

    def orphan_prefixes(self, queried: tuple[Prefix, ...]) -> tuple[Prefix, ...]:
        """Queried prefixes for which the server returned no full digest."""
        answered = {match.prefix for match in self.matches}
        return tuple(prefix for prefix in queried if prefix not in answered)


# ---------------------------------------------------------------------------
# endpoint handlers (service layer)
# ---------------------------------------------------------------------------


def serve_update(core: ServerCore, request: UpdateRequest) -> UpdateResponse:
    """The ``downloads`` endpoint: validate and dispatch an update request."""
    if not isinstance(request, UpdateRequest):
        raise ProtocolError(
            f"the downloads endpoint takes an UpdateRequest, "
            f"got {type(request).__name__}"
        )
    return core.process_update(request)


def serve_full_hash(core: ServerCore, request: FullHashRequest) -> FullHashResponse:
    """The ``gethash`` endpoint: validate and dispatch a full-hash request."""
    if not isinstance(request, FullHashRequest):
        raise ProtocolError(
            f"the gethash endpoint takes a FullHashRequest, "
            f"got {type(request).__name__}"
        )
    return core.process_full_hash(request)


# ---------------------------------------------------------------------------
# client-side lookup results
# ---------------------------------------------------------------------------


class Verdict(enum.Enum):
    """Outcome of a URL check (the leaves of the paper's Figure 3)."""

    SAFE = "safe"
    MALICIOUS = "malicious"


@dataclass(frozen=True, slots=True)
class LookupResult:
    """Everything the client learned while checking one URL.

    Besides the verdict, the result records what was *revealed* to the
    server: the prefixes sent (empty when the local database had no hit) and
    the lists in which the matching full hashes were found.  The privacy
    experiments read these fields rather than re-deriving them.
    """

    url: str
    canonical_url: str
    verdict: Verdict
    decompositions: tuple[str, ...]
    local_hits: tuple[Prefix, ...] = ()
    sent_prefixes: tuple[Prefix, ...] = ()
    matched_lists: tuple[str, ...] = ()
    matched_expressions: tuple[str, ...] = ()
    served_from_cache: bool = False

    @property
    def contacted_server(self) -> bool:
        """Whether the lookup leaked anything to the provider."""
        return bool(self.sent_prefixes)

    @property
    def is_malicious(self) -> bool:
        return self.verdict is Verdict.MALICIOUS


@dataclass
class ClientStats:
    """Counters the client keeps about its own traffic (for experiments).

    ``prefixes_sent`` counts *every* prefix that crossed the wire, cover
    traffic included; ``dummy_prefixes_sent`` counts the cover-traffic
    subset a privacy policy added (dummies, replayed mix prefixes), so
    ``prefixes_sent - dummy_prefixes_sent`` is the client's real exposure.
    ``extra_round_trips`` counts wire requests beyond the one coalesced
    request an undefended lookup would have made (the one-prefix-at-a-time
    policy's latency cost), and ``policy_delay_seconds`` accumulates the
    artificial delay a policy injected on the clock.

    The update-protocol counters measure sync bandwidth:
    ``update_requests`` counts download polls, ``chunks_received`` the
    chunks those polls carried, and ``update_prefixes_received`` the
    prefixes inside them — the quantity a warm start (restoring a snapshot
    and fetching only newer chunks) saves over a cold start.
    """

    urls_checked: int = exported("client_urls_checked_total",
                                 "URLs checked by clients")
    local_hits: int = 0
    full_hash_requests: int = exported("client_full_hash_requests_total",
                                       "Full-hash requests clients sent")
    prefixes_sent: int = 0
    dummy_prefixes_sent: int = 0
    extra_round_trips: int = 0
    policy_delay_seconds: float = 0.0
    cache_hits: int = 0
    malicious_verdicts: int = 0
    update_requests: int = exported("client_update_requests_total",
                                    "Update polls clients sent")
    chunks_received: int = exported("client_update_chunks_total",
                                    "Chunks received by update polls")
    update_prefixes_received: int = 0
    extra_requests: dict[str, int] = field(default_factory=dict)

    def record_extra(self, label: str, count: int = 1) -> None:
        """Track an auxiliary counter (e.g. dummy queries sent)."""
        self.extra_requests[label] = self.extra_requests.get(label, 0) + count

    def as_dict(self) -> dict:
        """Snapshot of every counter, keyed by field name.

        The one field list shared by :class:`FleetReport` aggregation, the
        CLI and the metrics exporter — derived from the dataclass fields so
        it can never drift from the class.  ``extra_requests`` is copied,
        never aliased.
        """
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["extra_requests"] = dict(self.extra_requests)
        return data

    @classmethod
    def aggregate(cls, stats: "Iterable[ClientStats]") -> dict:
        """Sum many clients' :meth:`as_dict` snapshots field-wise.

        Numeric fields are summed exactly; the ``extra_requests`` dicts are
        merged key-wise.  This is the fleet simulator's one summation path,
        so report totals and exported metrics can never disagree.
        """
        totals = cls().as_dict()
        for snapshot in stats:
            data = snapshot.as_dict() if isinstance(snapshot, cls) else snapshot
            for name, value in data.items():
                if name == "extra_requests":
                    merged = totals["extra_requests"]
                    for label, count in value.items():
                        merged[label] = merged.get(label, 0) + count
                else:
                    totals[name] += value
        return totals
