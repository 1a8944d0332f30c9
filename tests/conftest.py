"""Shared fixtures for the test suite.

Expensive artifacts (synthetic corpora, provisioned servers, inverted
indexes) are built once per session; individual tests treat them as
read-only.  Tests that need to mutate a server build their own from the
factory fixtures.
"""

from __future__ import annotations

import hashlib
import sqlite3

import pytest

from repro.clock import ManualClock
from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.safebrowsing.client import SafeBrowsingClient
from repro.safebrowsing.lists import GOOGLE_LISTS, YANDEX_LISTS
from repro.safebrowsing.server import SafeBrowsingServer
from repro.safebrowsing.snapshot import (
    _HEADER,
    FORMAT_VERSION,
    MAGIC,
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


#: Unusable server snapshot files: SQLite files cut short, bit-flipped or
#: foreign, a file in the retired binary server container, and a server
#: file in SQLite schema version 1.
MALFORMED_SERVER_FILES = ("truncated-half", "truncated-4096",
                          "truncated-200", "bit-flipped", "foreign-sqlite",
                          "retired-binary-server", "schema-v1")

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


@pytest.fixture(params=MALFORMED_SERVER_FILES)
def malformed_server_file(request, google_server, tmp_path):
    """A server snapshot file broken in the way the param names."""
    path = save_server_snapshot(google_server, tmp_path / "server.sqlite")
    data = path.read_bytes()
    kind = request.param
    if kind.startswith("truncated-"):
        size = kind.removeprefix("truncated-")
        path.write_bytes(data[:len(data) // 2 if size == "half" else int(size)])
    elif kind == "bit-flipped":
        flipped = bytearray(data)
        flipped[100] ^= 0xFF  # the page-type byte of page 1's b-tree header
        path.write_bytes(bytes(flipped))
    elif kind == "foreign-sqlite":
        path.unlink()
        connection = sqlite3.connect(path)
        with connection:
            connection.execute("CREATE TABLE unrelated (x)")
        connection.close()
    elif kind == "schema-v1":
        path.unlink()
        connection = sqlite3.connect(path)
        connection.executescript(SCHEMA_V1_SERVER_FILE)
        connection.close()
    else:  # a hand-built header of the binary server container (kind 2)
        payload = b"\x00" * 16
        path.write_bytes(_HEADER.pack(MAGIC, 2, 0, FORMAT_VERSION,
                                      len(payload),
                                      hashlib.sha256(payload).digest())
                         + payload)
    return path


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
