"""Unit tests for the durable server storage layer (safebrowsing.storage)."""

from __future__ import annotations

import sqlite3

import pytest

from repro.clock import ManualClock
from repro.exceptions import StorageError
from repro.hashing.digests import FullHash
from repro.hashing.prefix import Prefix
from repro.safebrowsing.database import ServerDatabase
from repro.safebrowsing.lists import GOOGLE_LISTS
from repro.safebrowsing.server import SafeBrowsingServer
from repro.safebrowsing.snapshot import (
    inspect_snapshot,
    load_server,
    load_server_database,
    save_server_snapshot,
)
from repro.safebrowsing.storage import (
    STORAGE_KINDS,
    MemoryServerStorage,
    SQLiteServerStorage,
    ServerStorage,
    SQLITE_MAGIC,
    build_server_storage,
    dump_database_to_sqlite,
    load_sqlite_server_database,
    sqlite_storage_summary,
)

LIST = "goog-malware-shavar"
EXPRESSIONS = ("evil.example/a", "evil.example/b", "phish.example/login")


def _sqlite_database(path=None) -> ServerDatabase:
    return ServerDatabase(GOOGLE_LISTS, storage="sqlite", storage_path=path)


def _populate(database: ServerDatabase) -> None:
    for expression in EXPRESSIONS:
        database[LIST].add_expression(expression)
    database[LIST].add_orphan_prefix(Prefix.from_int(0xDEADBEEF, 32))


class TestFactory:
    def test_registry_names(self):
        assert STORAGE_KINDS == ("memory", "sqlite")

    def test_memory_kind(self):
        storage = build_server_storage("memory")
        assert isinstance(storage, MemoryServerStorage)
        assert storage.kind == "memory"

    def test_sqlite_kind(self, tmp_path):
        storage = build_server_storage("sqlite", tmp_path / "s.sqlite")
        assert isinstance(storage, SQLiteServerStorage)
        assert storage.kind == "sqlite"
        storage.close()

    def test_instance_passes_through(self):
        storage = MemoryServerStorage()
        assert build_server_storage(storage) is storage

    def test_memory_rejects_a_path(self, tmp_path):
        with pytest.raises(StorageError, match="storage_path"):
            build_server_storage("memory", tmp_path / "s.sqlite")

    def test_instance_rejects_a_path(self, tmp_path):
        with pytest.raises(StorageError, match="already-built"):
            build_server_storage(MemoryServerStorage(), tmp_path / "s.sqlite")

    def test_unknown_kind_rejected(self):
        with pytest.raises(StorageError, match="redis"):
            build_server_storage("redis")


class TestMemoryBackend:
    def test_is_a_no_op_sink(self):
        database = ServerDatabase(GOOGLE_LISTS)
        assert database.storage.kind == "memory"
        _populate(database)
        assert database.storage.pending_ops() == 0
        assert database.commit() == 0
        assert database.committed_version == database.version


class TestWriteThroughJournal:
    def test_mutations_journal_until_commit(self):
        database = _sqlite_database()
        assert database.storage.pending_ops() == 0
        _populate(database)
        assert database.storage.pending_ops() > 0
        flushed = database.commit()
        assert flushed > 0
        assert database.storage.pending_ops() == 0
        assert database.committed_version == database.version

    def test_commit_cost_is_proportional_to_changes(self):
        """The O(changed) contract: a one-expression batch flushes a handful
        of ops no matter how much content the database already holds."""
        database = _sqlite_database()
        for index in range(200):
            database[LIST].add_expression(f"bulk-{index}.example/x")
        database.commit()
        database[LIST].add_expression("one-more.example/x")
        # entry+, and the commit's chunk + pendclear (the pend+ op is
        # coalesced away by the clear in the same journal).
        assert database.commit() == 3

    def test_coalescer_drops_cleared_pending_inserts(self):
        database = _sqlite_database()
        count = 50
        for index in range(count):
            database[LIST].add_expression(f"batch-{index}.example/x")
        # Per expression: entry+ (pend+ coalesced); plus one chunk op and
        # one pendclear for the batch-ending commit.
        assert database.commit() == count + 2

    def test_empty_commit_is_free(self):
        database = _sqlite_database()
        assert database.commit() == 0

    def test_flush_errors_carry_context(self, tmp_path):
        database = _sqlite_database(tmp_path / "s.sqlite")
        _populate(database)
        database.storage.close()  # force the flush to fail
        with pytest.raises(StorageError, match="flush"):
            database.commit()


class TestBindSemantics:
    def test_binding_over_populated_file_is_rejected(self, tmp_path):
        path = tmp_path / "s.sqlite"
        database = _sqlite_database(path)
        _populate(database)
        database.commit()
        database.storage.close()
        with pytest.raises(StorageError, match="already holds"):
            ServerDatabase(GOOGLE_LISTS, storage="sqlite", storage_path=path)

    def test_readonly_needs_a_file(self):
        with pytest.raises(StorageError, match="file path"):
            SQLiteServerStorage(None, readonly=True)

    def test_readonly_attachment_drops_records_and_refuses_flush(
            self, tmp_path):
        path = tmp_path / "s.sqlite"
        database = _sqlite_database(path)
        _populate(database)
        database.commit()
        database.storage.close()

        storage = SQLiteServerStorage(path, readonly=True)
        try:
            storage.record(LIST, ("expr+", "x.example/"))
            assert storage.pending_ops() == 0
            with pytest.raises(StorageError, match="read-only"):
                storage.flush()
        finally:
            storage.close()


class TestLoad:
    def test_round_trip_restores_content_and_versions(self, tmp_path):
        path = tmp_path / "s.sqlite"
        database = _sqlite_database(path)
        _populate(database)
        database.commit()
        database.storage.close()

        restored = load_sqlite_server_database(path)
        assert restored.version == database.version
        copy = restored[LIST]
        original = database[LIST]
        assert copy.expressions() == original.expressions()
        assert copy.prefix_count() == original.prefix_count()
        assert sorted(copy.orphan_prefixes()) == sorted(
            original.orphan_prefixes())
        assert copy.add_chunks == original.add_chunks

    def test_readonly_load_detaches_to_a_memory_replica(self, tmp_path):
        path = tmp_path / "s.sqlite"
        database = _sqlite_database(path)
        _populate(database)
        database.commit()
        database.storage.close()

        replica = load_sqlite_server_database(path)
        assert replica.storage.kind == "memory"
        # Replica mutations stay local: the file is untouched.
        replica[LIST].add_expression("local-only.example/x")
        replica.commit()
        fresh = load_sqlite_server_database(path)
        assert "local-only.example/x" not in fresh[LIST].expressions()

    def test_writable_load_keeps_persisting(self, tmp_path):
        path = tmp_path / "s.sqlite"
        database = _sqlite_database(path)
        _populate(database)
        database.commit()
        database.storage.close()

        writable = load_sqlite_server_database(path, writable=True)
        assert writable.storage.kind == "sqlite"
        writable[LIST].add_expression("resumed.example/x")
        writable.commit()
        writable.storage.close()
        fresh = load_sqlite_server_database(path)
        assert "resumed.example/x" in fresh[LIST].expressions()

    def test_uncommitted_mutations_are_invisible_to_readers(self, tmp_path):
        """The versioned-read guarantee: readers see the last commit."""
        path = tmp_path / "s.sqlite"
        database = _sqlite_database(path)
        _populate(database)
        database.commit()
        committed = database.version

        database[LIST].add_expression("torn.example/x")  # journalled only
        assert database.version > committed
        reader = load_sqlite_server_database(path)
        assert reader.version == committed == database.committed_version
        assert "torn.example/x" not in reader[LIST].expressions()

        database.commit()
        reader = load_sqlite_server_database(path)
        assert reader.version == database.committed_version
        assert "torn.example/x" in reader[LIST].expressions()
        database.storage.close()

    def test_reload_keeps_membership(self, tmp_path):
        path = tmp_path / "s.sqlite"
        database = _sqlite_database(path)
        _populate(database)
        database.commit()
        database.storage.close()

        restored = load_sqlite_server_database(path)
        members = sorted(database[LIST].prefixes())
        assert (restored[LIST].contains_many(members)
                == database[LIST].contains_many(members))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="cannot read SQLite storage"):
            load_sqlite_server_database(tmp_path / "absent.sqlite")

    def test_path_with_uri_characters_loads(self, tmp_path):
        """A read-only open escapes the path: ``#``, ``?`` and ``%`` are
        file-name characters, not URI syntax."""
        path = tmp_path / "s#1?x%20.sqlite"
        database = _sqlite_database(path)
        _populate(database)
        database.commit()
        database.storage.close()
        restored = load_sqlite_server_database(path)
        assert restored[LIST].expressions() == database[LIST].expressions()

    def test_non_sqlite_file_rejected(self, tmp_path):
        path = tmp_path / "not.sqlite"
        path.write_bytes(b"SBSNAP__definitely not sqlite")
        with pytest.raises(StorageError, match="not a SQLite"):
            load_sqlite_server_database(path)

    def test_empty_storage_file_rejected(self, tmp_path):
        path = tmp_path / "empty.sqlite"
        SQLiteServerStorage(path).close()  # schema, but no bound database
        with pytest.raises(StorageError, match="no server database"):
            load_sqlite_server_database(path)


class TestDumpAndSummary:
    def test_dump_memory_database_then_reload(self, tmp_path):
        database = ServerDatabase(GOOGLE_LISTS)
        _populate(database)
        database.commit_all()
        path = dump_database_to_sqlite(database, tmp_path / "dump.sqlite")
        restored = load_sqlite_server_database(path)
        assert restored.version >= 0
        assert restored[LIST].expressions() == database[LIST].expressions()
        assert restored[LIST].prefix_count() == database[LIST].prefix_count()
        assert restored[LIST].add_chunks == database[LIST].add_chunks

    def test_dump_over_live_storage_path_rejected(self, tmp_path):
        path = tmp_path / "live.sqlite"
        database = _sqlite_database(path)
        _populate(database)
        database.commit()
        with pytest.raises(StorageError, match="live storage"):
            dump_database_to_sqlite(database, path)
        database.storage.close()

    def test_summary_counts_match_the_database(self, tmp_path):
        path = tmp_path / "s.sqlite"
        database = _sqlite_database(path)
        _populate(database)
        database.commit()
        database.storage.close()

        meta, lists = sqlite_storage_summary(path)
        assert meta["prefix_bits"] == "32"
        # New files carry no index-layout rows.
        assert "index_backend" not in meta
        assert "shard_count" not in meta
        by_name = {entry["name"]: entry for entry in lists}
        assert by_name[LIST]["prefixes"] == database[LIST].prefix_count()
        assert by_name[LIST]["version"] == database[LIST].version
        assert by_name[LIST]["full_hashes"] == len(EXPRESSIONS)

    def test_corrupt_prefix_blob_rejected(self, tmp_path):
        path = tmp_path / "s.sqlite"
        database = _sqlite_database(path)
        _populate(database)
        database.commit()
        database.storage.close()
        with sqlite3.connect(path) as connection:
            connection.execute("UPDATE chunks SET prefixes = ?",
                               (b"\x00\x01\x02",))
        with pytest.raises(StorageError, match="corrupt prefix blob"):
            load_sqlite_server_database(path)

    def test_corrupt_entry_digest_rejected(self, tmp_path):
        path = tmp_path / "s.sqlite"
        database = _sqlite_database(path)
        _populate(database)
        database.commit()
        database.storage.close()
        with sqlite3.connect(path) as connection:
            connection.execute(
                "UPDATE entries SET digest = substr(digest, 1, 31) "
                "WHERE expression = ?", (EXPRESSIONS[0],))
        connection.close()
        with pytest.raises(StorageError,
                           match=f"corrupt entry digest in '{LIST}'"):
            load_sqlite_server_database(path)

    @pytest.mark.parametrize("malformed_snapshot", ["server-old-schema"],
                             indirect=True)
    def test_schema_version_1_file_asks_for_a_resave(
            self, malformed_snapshot):
        for load in (load_sqlite_server_database, sqlite_storage_summary):
            with pytest.raises(StorageError,
                               match="schema version 1;.*`repro snapshot "
                                     "save`"):
                load(malformed_snapshot.path)

    def test_file_holds_one_row_per_entry(self, tmp_path):
        """One ``entries`` row per digest, the expression beside it (NULL
        for a bare digest); no list name outside ``lists``."""
        path = tmp_path / "s.sqlite"
        database = _sqlite_database(path)
        _populate(database)
        bare = FullHash(b"\x01" * 32)
        database[LIST].add_full_hash(bare)
        database.commit()
        database.storage.close()
        with sqlite3.connect(path) as connection:
            tables = {name for (name,) in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'")}
            rows = connection.execute(
                "SELECT l.name, e.digest, e.expression FROM entries e "
                "JOIN lists l ON l.position = e.list_id").fetchall()
            columns = {table: [row[1] for row in connection.execute(
                f"PRAGMA table_info({table})")] for table in tables}
        connection.close()
        assert tables == {"meta", "lists", "entries", "orphans", "chunks",
                          "pending"}
        assert columns["entries"] == ["list_id", "digest", "expression"]
        assert all("list_name" not in names for names in columns.values())
        assert sorted(rows, key=lambda row: row[1]) == sorted(
            [(LIST, FullHash.of(expression).digest, expression)
             for expression in EXPRESSIONS] + [(LIST, bare.digest, None)],
            key=lambda row: row[1])


class TestSnapshotIntegration:
    """Server snapshots are SQLite files, from either storage backend."""

    def _server(self, path=None) -> SafeBrowsingServer:
        server = SafeBrowsingServer(GOOGLE_LISTS, clock=ManualClock(),
                                    storage="sqlite" if path else "memory",
                                    storage_path=path)
        server.blacklist(LIST, EXPRESSIONS)
        return server

    def test_save_sqlite_from_memory_backed_server(self, tmp_path):
        server = self._server()
        path = save_server_snapshot(server, tmp_path / "s.sqlite")
        assert path.read_bytes().startswith(SQLITE_MAGIC)
        restored = load_server_database(path)
        assert (restored[LIST].expressions()
                == server.database[LIST].expressions())

    def test_save_from_sqlite_backed_server_backs_up_the_live_file(
            self, tmp_path):
        server = self._server(tmp_path / "live.sqlite")
        server.database[LIST].add_expression("late.example/x")
        saved = save_server_snapshot(server, tmp_path / "copy.sqlite")
        assert saved.read_bytes().startswith(SQLITE_MAGIC)
        restored = load_server_database(saved)
        assert "late.example/x" in restored[LIST].expressions()
        server.database.storage.close()

    def test_save_to_the_live_path_is_a_flush(self, tmp_path):
        path = tmp_path / "live.sqlite"
        server = self._server(path)
        server.database[LIST].add_expression("late.example/x")
        assert save_server_snapshot(server, path) == path
        assert server.database.committed_version == server.database.version
        server.database.storage.close()
        restored = load_server_database(path)
        assert "late.example/x" in restored[LIST].expressions()

    def test_inspect_summary_matches_the_database(self, tmp_path):
        server = self._server()
        server.insert_orphan_prefixes(LIST, [Prefix.from_int(0xDEADBEEF, 32)])
        info = inspect_snapshot(save_server_snapshot(server,
                                                     tmp_path / "s.sqlite"))
        assert info.kind == "server"
        assert [(s.name, s.prefixes, s.full_hashes, s.version)
                for s in info.lists] == [
            (list_db.descriptor.name, list_db.prefix_count(),
             list_db.full_hash_count(), list_db.version)
            for list_db in server.database]

    def test_load_server_sniffs_sqlite(self, tmp_path):
        server = self._server(tmp_path / "live.sqlite")
        server.database.commit()
        server.database.storage.close()
        restored = load_server(tmp_path / "live.sqlite", clock=ManualClock())
        assert (restored.database[LIST].expressions()
                == server.database[LIST].expressions())


class TestInterface:
    def test_abstract_methods_raise(self):
        storage = ServerStorage()
        with pytest.raises(NotImplementedError):
            storage.bind(None)
        with pytest.raises(NotImplementedError):
            storage.record("x", ("expr+", "y"))
        with pytest.raises(NotImplementedError):
            storage.flush()
        with pytest.raises(NotImplementedError):
            storage.pending_ops()
        storage.close()  # the default close is a no-op
