"""Shared fixtures for the test suite.

Expensive artifacts (synthetic corpora, provisioned servers, inverted
indexes) are built once per session; individual tests treat them as
read-only.  Tests that need to mutate a server build their own from the
factory fixtures.
"""

from __future__ import annotations

import hashlib
import sqlite3
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro.clock import ManualClock
from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.safebrowsing.client import SafeBrowsingClient
from repro.safebrowsing.lists import GOOGLE_LISTS, YANDEX_LISTS
from repro.safebrowsing.server import SafeBrowsingServer
from repro.safebrowsing.snapshot import (
    FORMAT_VERSION,
    load_server_database,
    restore_client_snapshot,
    save_client_snapshot,
    save_server_snapshot,
)

#: Canonical expressions blacklisted by the default test server.
MALICIOUS_EXPRESSIONS = (
    "evil.example.com/malware/dropper.exe",
    "evil.example.com/",
    "phishy.example.net/login.html",
    "bad.actor.org/payload/",
)


@pytest.fixture(scope="session")
def random_corpus():
    """A small random-host corpus (session-scoped, read-only)."""
    config = CorpusConfig.random_like(60, seed=11)
    return CorpusGenerator(config).generate()


@pytest.fixture(scope="session")
def alexa_corpus():
    """A small popular-host corpus (session-scoped, read-only)."""
    config = CorpusConfig.alexa_like(60, seed=12)
    return CorpusGenerator(config).generate()


@pytest.fixture()
def clock() -> ManualClock:
    """A fresh manual clock."""
    return ManualClock()


@pytest.fixture()
def google_server(clock: ManualClock) -> SafeBrowsingServer:
    """A Google-shaped server with a few blacklisted expressions."""
    server = SafeBrowsingServer(GOOGLE_LISTS, clock=clock)
    server.blacklist("goog-malware-shavar", MALICIOUS_EXPRESSIONS[:2])
    server.blacklist("googpub-phish-shavar", MALICIOUS_EXPRESSIONS[2:])
    return server


@pytest.fixture()
def yandex_server(clock: ManualClock) -> SafeBrowsingServer:
    """A Yandex-shaped server with a few blacklisted expressions."""
    server = SafeBrowsingServer(YANDEX_LISTS, clock=clock)
    server.blacklist("ydx-malware-shavar", MALICIOUS_EXPRESSIONS[:2])
    server.blacklist("ydx-phish-shavar", MALICIOUS_EXPRESSIONS[2:])
    return server


#: A raw-backend client snapshot in the retired binary ``SBSNAP`` container
#: (kind 1, format version 1): it must raise the retired-container error.
RAW_SNAPSHOT_V1 = bytes.fromhex(
    "5342534e415001000100e30000000000000098eabd7dd73f0a832003a223240e"
    "ad144dd100ff5d35efa1d534ca446a7a53ff0300726177200005000000130067"
    "6f6f672d6d616c776172652d7368617661720100000001000000000000000102"
    "000000000000002a6582eeb6b9984d1300676f6f672d726567746573742d7368"
    "6176617200000000000000000100000000000000001400676f6f672d756e7761"
    "6e7465642d73686176617200000000000000000100000000000000001700676f"
    "6f672d7768697465646f6d61696e2d7368617661720000000000000000010000"
    "0000000000001400676f6f677075622d70686973682d73686176617201000000"
    "01000000000000000101000000000000005191742b"
)

#: A server file in SQLite schema version 1: expressions and full hashes in
#: two tables keyed by list name, each digest beside its own prefix.
SCHEMA_V1_SERVER_FILE = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL) WITHOUT ROWID;
INSERT INTO meta VALUES ('schema_version', '1'), ('prefix_bits', '32');
CREATE TABLE lists (
    name TEXT PRIMARY KEY, position INTEGER NOT NULL, provider TEXT NOT NULL,
    category TEXT NOT NULL, description TEXT NOT NULL,
    paper_prefix_count INTEGER, digest_format TEXT NOT NULL,
    version INTEGER NOT NULL DEFAULT 0) WITHOUT ROWID;
INSERT INTO lists VALUES ('goog-malware-shavar', 0, 'google', 'malware',
                          'malware', 317807, 'shavar', 1);
CREATE TABLE expressions (
    list_name TEXT NOT NULL, expression TEXT NOT NULL,
    PRIMARY KEY (list_name, expression)) WITHOUT ROWID;
INSERT INTO expressions VALUES ('goog-malware-shavar', 'evil.example/');
CREATE TABLE full_hashes (
    list_name TEXT NOT NULL, prefix BLOB NOT NULL, digest BLOB NOT NULL,
    PRIMARY KEY (list_name, digest)) WITHOUT ROWID;
"""

#: How each malformed case must fail, as a message pattern.  ``checksum``
#: (a flipped store byte) is client-only: a server file carries no
#: checksum.  ``old-schema`` is an unknown client schema version, or a
#: server file in schema version 1.
MALFORMED_CASES = {
    "truncated-half": "truncated",
    "truncated-4096": "truncated",
    "truncated-200": "truncated",
    "truncated-header": "truncated.*shorter than the SQLite header",
    "bit-flipped": "cannot read SQLite storage.*malformed",
    "checksum": "checksum mismatch",
    "foreign-sqlite": "no such table: meta",
    "not-sqlite": "not a snapshot file.*expected the SQLite magic",
    "trailing-bytes": "trailing bytes",
    "wrong-kind": "expected a {kind} snapshot, found a {other} one",
    "old-schema": "schema version {old};.*reads only version",
    "retired-binary-client": "no longer read.*`snapshot save`",
    "retired-binary-server": "no longer read.*`snapshot save`",
}

#: Every ``(kind, case)`` pair of the corruption matrix.
MALFORMED_SNAPSHOTS = [f"{kind}-{case}" for kind in ("client", "server")
                       for case in MALFORMED_CASES
                       if (kind, case) != ("server", "checksum")]


@dataclass(frozen=True)
class MalformedSnapshot:
    """One corruption-matrix file: ``load`` reads it as ``kind`` (a client
    restore, or a server load) and must raise a ``SnapshotError`` matching
    ``expected``."""

    kind: str
    case: str
    path: Path
    expected: str
    load: Callable[[], object]


def _retired_container(kind: int) -> bytes:
    """A hand-built file in the retired binary container of ``kind``."""
    payload = b"\x00" * 16
    return struct.pack("<6sBBHQ32s", b"SBSNAP", kind, 0, 1, len(payload),
                       hashlib.sha256(payload).digest()) + payload


@pytest.fixture(params=MALFORMED_SNAPSHOTS)
def malformed_snapshot(request, google_server, clock, tmp_path):
    """A client or server snapshot broken in the way the param names."""
    kind, case = request.param.split("-", 1)
    client = SafeBrowsingClient(google_server, name="matrix", clock=clock)
    client.update()
    saved = {"client": save_client_snapshot(client, tmp_path / "client.snap"),
             "server": save_server_snapshot(google_server,
                                            tmp_path / "server.sqlite")}
    other = "server" if kind == "client" else "client"
    path = saved[kind]
    data = path.read_bytes()
    if case.startswith("truncated-"):
        size = {"half": len(data) // 2, "header": 10}.get(
            case.removeprefix("truncated-"))
        path.write_bytes(data[:size or int(case.removeprefix("truncated-"))])
    elif case == "bit-flipped":
        flipped = bytearray(data)
        flipped[100] ^= 0xFF  # the page-type byte of page 1's b-tree header
        path.write_bytes(bytes(flipped))
    elif case == "checksum":
        store = client._lists["goog-malware-shavar"].store
        flipped = bytearray(data)
        flipped[data.index(b"".join(sorted(p.value for p in store)))] ^= 0x01
        path.write_bytes(bytes(flipped))
    elif case == "foreign-sqlite" or (kind, case) == ("server", "old-schema"):
        path.unlink()
        connection = sqlite3.connect(path)
        connection.executescript("CREATE TABLE unrelated (x);"
                                 if case == "foreign-sqlite"
                                 else SCHEMA_V1_SERVER_FILE)
        connection.close()
    elif case == "old-schema":
        connection = sqlite3.connect(path)
        with connection:
            connection.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(FORMAT_VERSION + 41),))
        connection.close()
    elif case == "not-sqlite":
        path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
    elif case == "trailing-bytes":
        path.write_bytes(data + b"garbage-from-a-second-frame")
    elif case == "wrong-kind":
        path = saved[other]
    elif case == "retired-binary-client":
        path.write_bytes(RAW_SNAPSHOT_V1)
    else:
        path.write_bytes(_retired_container(2))
    old = 1 if kind == "server" else FORMAT_VERSION + 41
    expected = MALFORMED_CASES[case].format(kind=kind, other=other, old=old)
    if kind == "client":
        def load():
            target = SafeBrowsingClient(google_server, name="target",
                                        clock=clock)
            return restore_client_snapshot(target, path)
    else:
        def load():
            return load_server_database(path)
    return MalformedSnapshot(kind, case, path, expected, load)


@pytest.fixture()
def updated_client(google_server: SafeBrowsingServer, clock: ManualClock) -> SafeBrowsingClient:
    """A client of ``google_server`` whose local database is up to date."""
    client = SafeBrowsingClient(google_server, name="test-client", clock=clock)
    client.update()
    return client


# -- network tier ------------------------------------------------------------
#
# Socket-backed fixtures for the ``network``-marked tier.  Every service
# binds port 0 (the kernel hands out a free ephemeral port), so parallel
# test runs never collide, and the service lives exactly as long as the
# test that requested it.


@pytest.fixture()
def http_service(google_server: SafeBrowsingServer):
    """``google_server`` served over a real socket for one test."""
    from repro.safebrowsing.netservice import ServiceThread

    service = ServiceThread(google_server).start()
    try:
        yield service
    finally:
        service.stop()


@pytest.fixture()
def http_transport(http_service):
    """An :class:`HttpTransport` onto ``http_service`` (fast-fail timeouts)."""
    from repro.safebrowsing.httptransport import HttpTransport

    transport = HttpTransport(
        http_service.address, server=http_service.core,
        timeout_seconds=5.0, retries=1, backoff_seconds=0.01)
    try:
        yield transport
    finally:
        transport.close()
