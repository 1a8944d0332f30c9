"""Unit tests for the persistence layer, corruption paths included.

The contract: every malformed file of either kind (the matrix of
``tests/conftest.py``: truncated, bit-flipped, checksum mismatch, foreign,
trailing bytes, wrong kind, old schema, the retired binary container), a
backend-name mismatch and a retired backend raise a typed
:class:`~repro.exceptions.SnapshotError` stating what was expected — never
a silent partial load, and never a change to the file.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.cli import main
from repro.clock import ManualClock
from repro.datastructures import STORE_FACTORIES
from repro.exceptions import SnapshotError, StorageError
from repro.hashing.prefix import Prefix
from repro.safebrowsing.client import ClientConfig, SafeBrowsingClient
from repro.safebrowsing.lists import GOOGLE_LISTS
from repro.safebrowsing.server import SafeBrowsingServer
from repro.safebrowsing.snapshot import (
    _write_client_file,
    inspect_snapshot,
    load_server,
    load_server_database,
    restore_client_snapshot,
    save_client_snapshot,
    save_server_snapshot,
)
from repro.safebrowsing.storage import load_sqlite_server_database

EXPRESSIONS = ("evil.example.com/", "phishy.example.net/login.html",
               "bad.actor.org/payload/")

#: A client snapshot written by the retired ``sorted-array`` backend in the
#: retired binary container: it raises the retired-container error.
SORTED_ARRAY_SNAPSHOT_V1 = bytes.fromhex(
    "5342534e415001000100ec00000000000000ebe9acf964f9b47c19bb447b957e"
    "227c5d04adc36bb8e0d27d2bd759f9f1aecf0c00736f727465642d6172726179"
    "2000050000001300676f6f672d6d616c776172652d7368617661720100000001"
    "000000000000000102000000000000002a6582eeb6b9984d1300676f6f672d72"
    "6567746573742d73686176617200000000000000000100000000000000001400"
    "676f6f672d756e77616e7465642d736861766172000000000000000001000000"
    "00000000001700676f6f672d7768697465646f6d61696e2d7368617661720000"
    "0000000000000100000000000000001400676f6f677075622d70686973682d73"
    "68617661720100000001000000000000000101000000000000005191742b"
)


@pytest.fixture()
def server(clock: ManualClock) -> SafeBrowsingServer:
    server = SafeBrowsingServer(GOOGLE_LISTS, clock=clock)
    server.blacklist("goog-malware-shavar", EXPRESSIONS[:2])
    server.blacklist("googpub-phish-shavar", EXPRESSIONS[2:])
    return server


def _client(server, clock, backend="raw", name="snap-client"):
    client = SafeBrowsingClient(server, name=name, clock=clock,
                                config=ClientConfig(store_backend=backend))
    client.update()
    return client


class TestClientRoundTrip:
    def test_restore_reproduces_database_and_chunk_state(self, server, clock,
                                                         tmp_path):
        client = _client(server, clock)
        path = save_client_snapshot(client, tmp_path / "client.snap")
        restored = SafeBrowsingClient(server, name="restored", clock=clock,
                                      config=ClientConfig(store_backend="raw"))
        count = restore_client_snapshot(restored, path)
        assert count == client.local_database_size()
        for list_name in client.subscribed_lists:
            original = client._lists[list_name]
            copy = restored._lists[list_name]
            assert sorted(original.add_chunks.numbers) == sorted(copy.add_chunks.numbers)
            assert sorted(original.sub_chunks.numbers) == sorted(copy.sub_chunks.numbers)
        # The warm-started client is already in sync: nothing to fetch.
        assert restored.update() == 0

    def test_restore_then_incremental_update(self, server, clock, tmp_path):
        client = _client(server, clock)
        path = save_client_snapshot(client, tmp_path / "client.snap")
        server.blacklist("goog-malware-shavar", ["fresh.threat.example/x"])
        restored = _fresh_client(server, clock)
        restore_client_snapshot(restored, path)
        before = restored.stats.update_prefixes_received
        assert restored.update() == 1  # exactly the one new chunk
        assert restored.stats.update_prefixes_received - before == 1
        assert restored.lookup("http://fresh.threat.example/x").is_malicious

    def test_restore_drops_store_memos(self, server, clock, tmp_path):
        client = _client(server, clock)
        client.check_urls(["http://evil.example.com/", "http://safe.example/"])
        assert client._known_hits or client._known_misses
        path = save_client_snapshot(client, tmp_path / "client.snap")
        restore_client_snapshot(client, path)
        assert not client._known_hits and not client._known_misses
        assert not client._full_hash_cache and not client._safe_result_cache

    @pytest.mark.parametrize("backend", sorted(STORE_FACTORIES))
    def test_every_backend_round_trips(self, server, clock, tmp_path,
                                       backend):
        client = _client(server, clock, backend=backend)
        path = save_client_snapshot(client, tmp_path / "client.snap")
        restored = _fresh_client(server, clock, backend=backend)
        assert restore_client_snapshot(restored, path) == \
            client.local_database_size()
        assert all(type(state.store) is STORE_FACTORIES[backend]
                   for state in restored._lists.values())
        assert restored.update() == 0
        assert restored.lookup("http://evil.example.com/").is_malicious


def _fresh_client(server, clock, backend="raw"):
    return SafeBrowsingClient(server, name="fresh", clock=clock,
                              config=ClientConfig(store_backend=backend))


def _snapshot_with_run(path, backend: str, values: list[int]):
    """A checksummed one-list client snapshot whose packed run is ``values``
    verbatim, in the given order (the writer itself always sorts)."""
    run = b"".join(value.to_bytes(4, "big") for value in values)
    return _write_client_file(
        path, backend, 32,
        [("goog-malware-shavar", [], [], None, None, None, run)])


class TestUnsortedPackedRun:
    """A valid-checksum run that is unsorted or repeats values restores to
    its sorted, deduplicated set on every registered backend."""

    MEMBERS = [9, 3, 7, 1, 5, 5]

    @pytest.mark.parametrize("backend", sorted(STORE_FACTORIES))
    def test_restores_the_deduplicated_set(self, server, clock, tmp_path,
                                           backend):
        path = _snapshot_with_run(tmp_path / "unsorted.snap", backend,
                                  self.MEMBERS)
        client = SafeBrowsingClient(server, name="unsorted", clock=clock,
                                    lists=["goog-malware-shavar"],
                                    config=ClientConfig(store_backend=backend))
        restore_client_snapshot(client, path)
        store = client._lists["goog-malware-shavar"].store
        members = [Prefix.from_int(value, 32) for value in sorted(set(self.MEMBERS))]
        probes = members + [Prefix.from_int(value, 32) for value in (0, 2, 4, 6, 8, 10)]
        mask = store.contains_many(probes)
        assert mask & 0b11111 == 0b11111
        assert all(prefix in store for prefix in members)
        if not store.approximate:
            assert len(store) == 5
            assert mask == 0b11111
            assert [prefix.to_int() for prefix in store] == [1, 3, 5, 7, 9]


class TestRetiredBackends:
    """Snapshots written by a backend this build no longer registers."""

    @pytest.mark.parametrize("retired", ["sorted-array", "mmap", "numpy-mmap"])
    def test_restore_and_inspect_raise(self, server, clock, tmp_path,
                                       retired):
        path = _snapshot_with_run(tmp_path / "retired.snap", retired,
                                  [1, 2, 3])
        client = SafeBrowsingClient(server, name="retired", clock=clock,
                                    lists=["goog-malware-shavar"])
        with pytest.raises(SnapshotError, match=f"{retired!r}.*does not provide"):
            restore_client_snapshot(client, path)
        with pytest.raises(SnapshotError, match="does not provide"):
            inspect_snapshot(path)

    def test_sorted_array_v1_fixture_raises(self, server, clock, tmp_path):
        path = tmp_path / "sorted-array-v1.snap"
        path.write_bytes(SORTED_ARRAY_SNAPSHOT_V1)
        with pytest.raises(SnapshotError, match="no longer read"):
            restore_client_snapshot(_fresh_client(server, clock), path)

    @pytest.mark.parametrize("retired", ["sorted-array", "mmap", "numpy-mmap"])
    def test_snapshot_load_of_any_retired_backend_exits_2(self, capsys,
                                                          tmp_path, retired):
        path = _snapshot_with_run(tmp_path / "retired.snap", retired,
                                  [1, 2, 3])
        assert main(["snapshot", "load", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert repr(retired) in captured.err
        assert not captured.out

    def test_snapshot_load_exits_2(self, capsys, tmp_path):
        path = tmp_path / "sorted-array-v1.snap"
        path.write_bytes(SORTED_ARRAY_SNAPSHOT_V1)
        assert main(["snapshot", "load", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "SBSNAP" in captured.err and "no longer read" in captured.err
        assert not captured.out


class TestCorruptionPaths:
    def test_missing_file_is_a_snapshot_error(self, server, clock, tmp_path):
        """OS errors fold into SnapshotError so the CLI reports, not tracebacks."""
        missing = tmp_path / "never-written.snap"
        with pytest.raises(SnapshotError, match="cannot read"):
            restore_client_snapshot(_fresh_client(server, clock), missing)
        with pytest.raises(SnapshotError, match="cannot read"):
            load_server_database(missing)
        with pytest.raises(SnapshotError, match="cannot read"):
            inspect_snapshot(missing)

    def test_backend_name_mismatch_lists_both_names(self, server, clock,
                                                    tmp_path):
        client = _client(server, clock, backend="raw")
        path = save_client_snapshot(client, tmp_path / "c.snap")
        target = _fresh_client(server, clock, backend="delta-coded")
        with pytest.raises(SnapshotError) as excinfo:
            restore_client_snapshot(target, path)
        message = str(excinfo.value)
        assert "'raw'" in message and "delta-coded" in message

    def test_prefix_width_mismatch(self, server, clock, tmp_path):
        client = _client(server, clock)
        path = save_client_snapshot(client, tmp_path / "c.snap")
        wide = SafeBrowsingClient(
            server, name="wide", clock=clock,
            config=ClientConfig(store_backend="raw", prefix_bits=64))
        with pytest.raises(SnapshotError, match="64-bit"):
            restore_client_snapshot(wide, path)

    def test_subscribed_list_mismatch(self, server, clock, tmp_path):
        client = _client(server, clock)
        path = save_client_snapshot(client, tmp_path / "c.snap")
        partial = SafeBrowsingClient(server, name="partial", clock=clock,
                                     lists=["goog-malware-shavar"],
                                     config=ClientConfig(store_backend="raw"))
        with pytest.raises(SnapshotError, match="subscribes"):
            restore_client_snapshot(partial, path)

    def test_failed_restore_leaves_client_usable(self, server, clock,
                                                 tmp_path):
        """A rejected snapshot must not leave the client half-restored."""
        client = _client(server, clock)
        verdict_before = client.lookup("http://evil.example.com/").verdict
        bad = save_server_snapshot(server, tmp_path / "server.sqlite")
        with pytest.raises(SnapshotError):
            restore_client_snapshot(client, bad)
        assert client.lookup("http://evil.example.com/").verdict == verdict_before


class TestServerRoundTrip:
    def test_server_snapshot_round_trip(self, server, tmp_path):
        orphan = Prefix.from_int(0xDEADBEEF, 32)
        server.insert_orphan_prefixes("goog-malware-shavar", [orphan])
        path = save_server_snapshot(server, tmp_path / "server.sqlite")
        restored = load_server(path, clock=ManualClock())
        assert restored.database.version == server.database.version
        assert restored.list_names() == server.list_names()
        for list_db in server.database:
            copy = restored.database[list_db.descriptor.name]
            assert copy.version == list_db.version
            assert copy.prefix_count() == list_db.prefix_count()
            assert copy.expressions() == list_db.expressions()
            assert copy.add_chunks == list_db.add_chunks
            assert copy.sub_chunks == list_db.sub_chunks
        assert restored.database["goog-malware-shavar"].contains_prefix(orphan)

    def test_restored_server_serves_clients(self, server, tmp_path):
        path = save_server_snapshot(server, tmp_path / "server.sqlite")
        restored = load_server(path, clock=ManualClock())
        client = SafeBrowsingClient(restored, name="of-restored")
        client.update()
        assert client.lookup("http://evil.example.com/").is_malicious
        assert not client.lookup("http://fine.example.org/").contacted_server

    def test_load_keeps_membership(self, server, tmp_path):
        path = save_server_snapshot(server, tmp_path / "server.sqlite")
        restored = load_server_database(path)
        for list_db in server.database:
            copy = restored[list_db.descriptor.name]
            for prefix in list_db.prefixes():
                assert copy.contains_prefix(prefix)

    #: Every index backend a file could name while the server index was
    #: configurable, retired names included.
    @pytest.mark.parametrize("index_backend", [
        "bloom", "delta-coded", "mmap", "numpy", "numpy-mmap", "raw",
        "sorted-array"])
    def test_file_with_index_backend_meta_row_still_loads(self, server,
                                                          tmp_path,
                                                          index_backend):
        """Files saved while the server index was configurable carry an
        ``index_backend`` meta row; loading ignores it."""
        path = save_server_snapshot(server, tmp_path / "server.sqlite")
        with sqlite3.connect(path) as connection:
            connection.execute("INSERT INTO meta (key, value) "
                               "VALUES ('index_backend', ?)", (index_backend,))
        connection.close()
        restored = load_server(path, clock=ManualClock())
        assert restored.database.version == server.database.version
        for list_db in server.database:
            copy = restored.database[list_db.descriptor.name]
            assert sorted(copy.prefixes()) == sorted(list_db.prefixes())
        assert inspect_snapshot(path).backend == "raw"

    @pytest.mark.parametrize("shard_count", ["1", "4", "16", "256"])
    def test_file_with_shard_count_meta_row_still_loads(self, server,
                                                        tmp_path,
                                                        shard_count):
        """Files saved while the server index was sharded carry a
        ``shard_count`` meta row; loading and inspecting ignore it."""
        path = save_server_snapshot(server, tmp_path / "server.sqlite")
        with sqlite3.connect(path) as connection:
            connection.execute("INSERT INTO meta (key, value) "
                               "VALUES ('shard_count', ?)", (shard_count,))
        connection.close()
        restored = load_server(path, clock=ManualClock())
        assert restored.database.version == server.database.version
        for list_db in server.database:
            copy = restored.database[list_db.descriptor.name]
            assert sorted(copy.prefixes()) == sorted(list_db.prefixes())
        info = inspect_snapshot(path)
        assert info.kind == "server"
        assert info.total_prefixes == sum(
            list_db.prefix_count() for list_db in server.database)

    def test_cli_summarizes_file_with_shard_count_meta_row(self, server,
                                                          tmp_path, capsys):
        path = save_server_snapshot(server, tmp_path / "server.sqlite")
        with sqlite3.connect(path) as connection:
            connection.execute("INSERT INTO meta (key, value) "
                               "VALUES ('shard_count', '16')")
        connection.close()
        assert main(["snapshot", "load", str(path), "--summary"]) == 0
        loaded = capsys.readouterr().out
        assert "kind            : server" in loaded
        assert "shard" not in loaded
        for list_db in server.database:
            assert (f"  {list_db.descriptor.name}: version={list_db.version} "
                    f"prefixes={list_db.prefix_count()}") in loaded

    def test_pending_mutations_survive(self, server, tmp_path, clock):
        database = server.database["goog-malware-shavar"]
        database.add_expression("pending.example/x")  # not committed
        path = save_server_snapshot(server, tmp_path / "server.sqlite")
        restored = load_server(path, clock=ManualClock())
        add_chunk, _ = restored.database["goog-malware-shavar"].commit_pending()
        assert add_chunk is not None and len(add_chunk) == 1


class TestInspect:
    def test_inspect_client_snapshot(self, server, clock, tmp_path):
        client = _client(server, clock)
        path = save_client_snapshot(client, tmp_path / "c.snap")
        info = inspect_snapshot(path)
        assert info.kind == "client"
        assert info.backend == "raw"
        assert info.total_prefixes == client.local_database_size()

    def test_inspect_server_snapshot(self, server, tmp_path):
        path = save_server_snapshot(server, tmp_path / "server.sqlite")
        info = inspect_snapshot(path)
        assert info.kind == "server"
        assert info.backend == "raw"
        assert info.total_prefixes == sum(
            list_db.prefix_count() for list_db in server.database)


class TestMalformedSnapshots:
    """The corruption matrix of ``tests/conftest.py``, for both kinds."""

    def test_malformed_file_is_a_typed_error(self, malformed_snapshot):
        expected = malformed_snapshot.expected
        with pytest.raises(SnapshotError, match=expected):
            malformed_snapshot.load()
        if malformed_snapshot.kind == "server":
            with pytest.raises(StorageError, match=expected):
                load_sqlite_server_database(malformed_snapshot.path)
        if malformed_snapshot.case != "wrong-kind":  # else a valid file
            with pytest.raises(SnapshotError, match=expected):
                inspect_snapshot(malformed_snapshot.path)

    def test_failed_loads_leave_the_file_alone(self, malformed_snapshot):
        """No load of either kind, read-only or writable, changes a file it
        rejects."""
        path = malformed_snapshot.path
        before = path.read_bytes()
        with pytest.raises(SnapshotError):
            malformed_snapshot.load()
        if (malformed_snapshot.kind, malformed_snapshot.case) != (
                "client", "wrong-kind"):  # else a valid server file
            with pytest.raises(SnapshotError):
                load_server_database(path, writable=True)
        assert path.read_bytes() == before
