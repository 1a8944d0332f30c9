"""Byte-flip sweeps: a corrupted snapshot file fails typed, never untyped.

Each single-byte flip (XOR 0xFF, and XOR 0x01) of a saved file is loaded back — a client
file by a restore and by ``inspect_snapshot``, a server file by
``load_server_database`` and by ``inspect_snapshot``.  Every flip must
raise :class:`~repro.exceptions.SnapshotError` or load; nothing else may
escape.  A client file's rows carry SHA-256 checksums, so a client flip
that loads must load exactly the saved state.  A server file carries no
checksum: a flip inside a row's payload (a version, a digest, a chunk
blob) can load a different state, so the server sweep pins equal state only
for the first two pages, the schema and the ``meta`` table.

Tier-1 sweeps those first two pages of each kind, where SQLite's own errors
(undecodable schema text, missing meta rows) surface.  It skips each page's
unallocated gap — between the cell pointer array and the cell content —
which nothing in a file with one flipped byte points into.  The whole-file
sweeps run under ``slow``.  This mirrors the frame sweep of
``test_prop_wireformat.py``.
"""

from __future__ import annotations

import struct

import pytest

from repro.clock import ManualClock
from repro.datastructures.bloom import BloomPrefixStore
from repro.exceptions import SnapshotError
from repro.safebrowsing.client import SafeBrowsingClient
from repro.safebrowsing.lists import GOOGLE_LISTS
from repro.safebrowsing.server import SafeBrowsingServer
from repro.safebrowsing.snapshot import (
    inspect_snapshot,
    load_server_database,
    restore_client_snapshot,
    save_client_snapshot,
    save_server_snapshot,
)
from tests.conftest import MALICIOUS_EXPRESSIONS

#: SQLite's default page size: page 1 holds the schema, page 2 ``meta``.
PAGE = 4096


@pytest.fixture(scope="module")
def server() -> SafeBrowsingServer:
    server = SafeBrowsingServer(GOOGLE_LISTS, clock=ManualClock())
    server.blacklist("goog-malware-shavar", MALICIOUS_EXPRESSIONS[:2])
    server.blacklist("googpub-phish-shavar", MALICIOUS_EXPRESSIONS[2:])
    return server


def _client_state(client: SafeBrowsingClient) -> tuple:
    def store_state(store):
        if isinstance(store, BloomPrefixStore):
            bloom = store.filter
            return (bloom.capacity, bloom.false_positive_rate, len(store),
                    bloom.bit_bytes())
        return type(store), sorted(prefix.value for prefix in store)

    return tuple((name, sorted(state.add_chunks.numbers),
                  sorted(state.sub_chunks.numbers), store_state(state.store))
                 for name, state in client._lists.items())


def _server_state(database) -> tuple:
    return database.prefix_bits, tuple(
        (list_db.descriptor, list_db.version,
         sorted(list_db._expressions.items()),
         sorted(list_db._full_hashes.items()), sorted(list_db._orphans),
         list_db._add_chunks, list_db._sub_chunks,
         list_db._pending_additions, list_db._pending_removals)
        for list_db in database)


def _read_offsets(data: bytes, pages: int) -> list[int]:
    """The offsets of the first ``pages`` b-tree pages that SQLite reads:
    all but the gap between a page's cell pointer array and its cell
    content area."""
    offsets = []
    for start in range(0, pages * PAGE, PAGE):
        header = start + (100 if start == 0 else 0)  # page 1: file header
        page_type, cells, content = struct.unpack_from(">B2xHH", data, header)
        pointers = header + (12 if page_type in (2, 5) else 8) + 2 * cells
        offsets += [offset for offset in range(start, start + PAGE)
                    if not pointers <= offset < start + (content or 65536)]
    return offsets


def _sweep(kind: str, server: SafeBrowsingServer, tmp_path,
           pages: int | None = None) -> dict[str, list]:
    """Flip each byte of a ``kind`` file in turn (only the read bytes of
    its first ``pages`` pages, if given); returns the offsets whose load was
    untyped or loaded a different state."""
    if kind == "client":
        client = SafeBrowsingClient(server, name="saved", clock=ManualClock())
        client.update()
        saved = save_client_snapshot(client, tmp_path / "saved.snap")

        def load(path):
            target = SafeBrowsingClient(server, name="target",
                                        clock=ManualClock())
            restore_client_snapshot(target, path)
            return _client_state(target)
    else:
        saved = save_server_snapshot(server, tmp_path / "saved.sqlite")

        def load(path):
            return _server_state(load_server_database(path))

    data = saved.read_bytes()
    reference = load(saved)
    path = tmp_path / "flipped"
    outcomes: dict[str, list] = {"untyped": [], "different": []}
    offsets = range(len(data)) if pages is None else _read_offsets(data, pages)
    for offset, flip in ((offset, flip) for offset in offsets
                         for flip in (0xFF, 0x01)):
        flipped = bytearray(data)
        flipped[offset] ^= flip
        path.write_bytes(flipped)
        for read in (load, inspect_snapshot):
            try:
                state = read(path)
            except SnapshotError:
                continue
            except Exception as exc:  # noqa: BLE001 - the sweep's subject
                outcomes["untyped"].append((offset, read.__name__, repr(exc)))
                continue
            if read is load and state != reference:
                outcomes["different"].append(offset)
    return outcomes


@pytest.mark.parametrize("kind", ["client", "server"])
def test_flips_in_schema_and_meta_pages_fail_typed_or_load_equal(
        kind, server, tmp_path):
    assert _sweep(kind, server, tmp_path, pages=2) == {
        "untyped": [], "different": []}


@pytest.mark.slow
def test_every_client_file_flip_fails_typed_or_loads_equal(server, tmp_path):
    assert _sweep("client", server, tmp_path) == {
        "untyped": [], "different": []}


@pytest.mark.slow
def test_every_server_file_flip_fails_typed(server, tmp_path):
    outcomes = _sweep("server", server, tmp_path)
    assert outcomes["untyped"] == []
    # Without a checksum, only flips inside row payloads past the meta page
    # can load a different state.
    assert all(offset >= 2 * PAGE for offset in outcomes["different"])
