"""Durable server storage: the layer under :class:`ServerDatabase`.

Server state lives in Python dicts for lookups; at the paper's Table 1
scale re-serializing that whole state on every change would be the
dominant cost.  This module keeps storage behind a :class:`ServerStorage`
interface, the way the Safe Browsing DNSBL-generator exemplar keeps its
blocklists in SQLite while queries keep flowing:

* the **working set** stays in memory — every
  :class:`~repro.safebrowsing.database.ListDatabase` answers lookups from
  its own buckets and orphans, never from the durable layer;
* **durability is a write-through journal**: each logical mutation is also
  recorded with the storage (:meth:`ServerStorage.record`), and
  :meth:`ServerStorage.flush` commits the journal in one transaction, so
  persisting costs what changed, never the size of the database;
* **loads rebuild the working set** from the tables
  (:meth:`SQLiteServerStorage.load_database`).

The file stores each entry once and nothing derived.  One ``entries`` row
holds a digest beside its expression (NULL for a digest added bare); a
load keys buckets by the digest's leading bytes without re-hashing.
``entries``, ``orphans``, ``chunks`` and ``pending`` name their list by its
integer ``lists.position``.  This file is also the one server snapshot
format: :func:`~repro.safebrowsing.snapshot.save_server_snapshot` flushes
into one (or exports a memory-backed database with
:func:`dump_database_to_sqlite`), and every server load reads one back.

:data:`STORAGE_KINDS` names two backends: ``"memory"``
(:class:`MemoryServerStorage`, the default: recording and flushing are
no-ops, the dicts *are* the state) and ``"sqlite"``
(:class:`SQLiteServerStorage`; ``path=None`` is a private ``:memory:``
database).  Readers attaching to a file — other processes, the parallel
fleet's workers — open it read-only and see only *committed* transactions,
the versioned-read guarantee :mod:`repro.safebrowsing.ingest` builds on.

``tests/property/test_prop_server_storage.py`` pins a database reloaded
from SQLite identical to its writer and to its memory-backed twin, and
fleet traffic signatures invariant under the storage choice.
"""

from __future__ import annotations

import sqlite3
import struct
from collections.abc import Iterable, Sequence
from itertools import groupby
from pathlib import Path
from typing import TYPE_CHECKING

from repro.exceptions import PrefixError, ProtocolError, StorageError
from repro.hashing.digests import FULL_DIGEST_BITS, _valid_full_hash
from repro.hashing.prefix import Prefix, PrefixRun, _check_bits
from repro.safebrowsing.chunks import Chunk, ChunkKind
from repro.safebrowsing.lists import ListDescriptor, ListProvider, ThreatCategory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (database imports us)
    from repro.safebrowsing.database import ListDatabase, ServerDatabase

#: Storage kinds accepted by :func:`build_server_storage`; the CLI's
#: ``fleet --server-storage`` and ``ingest``/``serve --storage`` take their
#: choices from it.
STORAGE_KINDS = ("memory", "sqlite")

#: Schema version written to (and required from) every SQLite storage file.
SQLITE_SCHEMA_VERSION = 2

#: Length of the digest in every ``entries`` row.
_DIGEST_BYTES = FULL_DIGEST_BITS // 8

#: First bytes of every SQLite database file.
SQLITE_MAGIC = b"SQLite format 3\x00"

#: First bytes of a file in the retired binary snapshot container (either
#: kind), recognized only to be rejected.
RETIRED_MAGIC = b"SBSNAP"

#: The start of SQLite's file header: the magic, the page size (1 standing
#: for 65536) and, at offset 28, the page count.  SQLite loads a file with
#: bytes appended without complaint, so the size the header declares is
#: compared with the size on disk.
_SQLITE_HEADER = struct.Struct(">16sH10xI")

#: Journal op codes (first element of every recorded op tuple).  The
#: database's mutators build these tuples (:meth:`ListDatabase._record`);
#: :meth:`SQLiteServerStorage.flush` applies them.  ``entry+`` carries
#: ``(digest, expression or None)`` and ``entry-`` the digest.
OP_ENTRY_ADD = "entry+"
OP_ENTRY_REMOVE = "entry-"
OP_ORPHAN_ADD = "orphan+"
OP_ORPHAN_REMOVE = "orphan-"
OP_CHUNK = "chunk"
OP_PENDING_ADD = "pend+"
OP_PENDING_CLEAR = "pendclear"

#: ``pending.kind`` column values.
PENDING_ADDITION = 0
PENDING_REMOVAL = 1

#: ``chunks.kind`` column values.
CHUNK_KIND_CODES = {ChunkKind.ADD: 0, ChunkKind.SUB: 1}

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS lists (
    name               TEXT PRIMARY KEY,
    position           INTEGER NOT NULL,
    provider           TEXT NOT NULL,
    category           TEXT NOT NULL,
    description        TEXT NOT NULL,
    paper_prefix_count INTEGER,
    digest_format      TEXT NOT NULL,
    version            INTEGER NOT NULL DEFAULT 0
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS entries (
    list_id    INTEGER NOT NULL,
    digest     BLOB NOT NULL,
    expression TEXT,
    PRIMARY KEY (list_id, digest)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS orphans (
    list_id INTEGER NOT NULL,
    prefix  BLOB NOT NULL,
    PRIMARY KEY (list_id, prefix)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS chunks (
    list_id        INTEGER NOT NULL,
    kind           INTEGER NOT NULL,
    number         INTEGER NOT NULL,
    referenced_add INTEGER NOT NULL,
    prefixes       BLOB NOT NULL,
    PRIMARY KEY (list_id, kind, number)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS pending (
    list_id  INTEGER NOT NULL,
    kind     INTEGER NOT NULL,
    position INTEGER NOT NULL,
    prefix   BLOB NOT NULL,
    PRIMARY KEY (list_id, kind, position)
) WITHOUT ROWID;
"""

#: The statement applying each journal op code, bound to
#: ``(list_id, *op[1:])``.  ``entry+`` never overwrites a stored expression
#: with NULL: a bare digest added after its expression keeps the text.
_OP_SQL = {
    OP_ENTRY_ADD: "INSERT INTO entries (list_id, digest, expression) "
                  "VALUES (?, ?, ?) ON CONFLICT (list_id, digest) DO UPDATE "
                  "SET expression = COALESCE(excluded.expression, expression)",
    OP_ENTRY_REMOVE: "DELETE FROM entries WHERE list_id = ? AND digest = ?",
    OP_ORPHAN_ADD: "INSERT OR IGNORE INTO orphans (list_id, prefix) "
                   "VALUES (?, ?)",
    OP_ORPHAN_REMOVE: "DELETE FROM orphans WHERE list_id = ? AND prefix = ?",
    OP_PENDING_ADD: "INSERT INTO pending (list_id, kind, position, prefix) "
                    "VALUES (?1, ?2, 1 + COALESCE((SELECT MAX(position) "
                    "FROM pending WHERE list_id = ?1 AND kind = ?2), 0), ?3)",
    OP_PENDING_CLEAR: "DELETE FROM pending WHERE list_id = ? AND kind = ?",
    OP_CHUNK: "INSERT OR REPLACE INTO chunks "
              "(list_id, kind, number, referenced_add, prefixes) "
              "VALUES (?, ?, ?, ?, ?)",
}


class ServerStorage:
    """Interface between a :class:`ServerDatabase` and its durable layer.

    A storage object is bound to exactly one database
    (:meth:`bind`, called by the database constructor).  The database
    write-throughs every logical mutation via :meth:`record`; the storage
    owns *when* those records become durable (:meth:`flush`).  Queries
    never come here — the database answers them from its in-memory working
    set, which is why lookup latency stays flat while a flush runs.
    """

    #: Registry name of the backend (``"memory"`` / ``"sqlite"``).
    kind: str = "abstract"

    #: Durable location, or ``None`` when there is none (memory backend,
    #: ``:memory:`` SQLite databases).
    path: Path | None = None

    #: Read-only attachments serve loads and drop records; flushing through
    #: one raises :class:`StorageError`.
    readonly: bool = False

    def bind(self, database: "ServerDatabase") -> None:
        """Adopt ``database`` as the owner of this storage."""
        raise NotImplementedError

    def record(self, list_name: str, op: tuple) -> None:
        """Journal one logical mutation of ``list_name``."""
        raise NotImplementedError

    def flush(self) -> int:
        """Commit the journalled mutations durably; returns ops committed.

        The cost is proportional to the journal length — O(changed), never
        O(database).  A flush with an empty journal is free and returns 0.
        """
        raise NotImplementedError

    def pending_ops(self) -> int:
        """Journalled mutations not yet flushed."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources (idempotent)."""


class MemoryServerStorage(ServerStorage):
    """The no-op storage of a purely in-memory server (the default mode).

    The database's dicts are the only copy of the state; persistence, when
    wanted, exports it whole with :func:`dump_database_to_sqlite`.
    """

    kind = "memory"

    def __init__(self) -> None:
        self._database: "ServerDatabase | None" = None

    def bind(self, database: "ServerDatabase") -> None:
        self._database = database

    def record(self, list_name: str, op: tuple) -> None:
        pass

    def flush(self) -> int:
        return 0

    def pending_ops(self) -> int:
        return 0


class SQLiteServerStorage(ServerStorage):
    """SQLite-backed durability for a :class:`ServerDatabase`.

    Parameters
    ----------
    path:
        Database file.  ``None`` opens a private ``:memory:`` database —
        the full SQL path with no file management, which is what the
        storage-equivalence property tests (and monolithic fleet runs with
        ``server_storage="sqlite"``) use.
    readonly:
        Open an existing file read-only (URI ``mode=ro``).  A read-only
        attachment is a *load-time* affair — the parallel fleet's workers
        use it to rebuild replicas from the parent's committed state —
        so :meth:`record` drops ops and :meth:`flush` raises.
    """

    kind = "sqlite"

    def __init__(self, path: str | Path | None = None, *,
                 readonly: bool = False) -> None:
        self.path = Path(path) if path is not None else None
        self.readonly = readonly
        self._database: "ServerDatabase | None" = None
        self._journal: list[tuple[str, tuple]] = []
        #: ``lists.position`` of each list, the key of its rows.
        self._list_ids: dict[str, int] = {}
        self._loading = False
        if readonly and self.path is None:
            raise StorageError("a read-only SQLite storage needs a file path")
        try:
            if self.path is None:
                self._connection = sqlite3.connect(":memory:")
            elif readonly:
                self._connection = sqlite3.connect(
                    f"{self.path.resolve().as_uri()}?mode=ro", uri=True)
            else:
                self._connection = sqlite3.connect(self.path)
        except sqlite3.Error as exc:
            raise StorageError(
                f"cannot open SQLite storage at {path}: {exc}") from exc
        if not readonly:
            # The schema goes only into an empty file; any other is checked
            # first (a foreign one has no ``meta``) and left as it was.
            try:
                with self._connection:
                    if self._connection.execute(
                            "SELECT 1 FROM sqlite_master").fetchone() is None:
                        self._connection.executescript(_SCHEMA)
                    elif self._connection.execute(
                            "SELECT 1 FROM meta").fetchone() is not None:
                        self._read_meta()
            except StorageError:
                self._connection.close()
                raise
            except (sqlite3.Error, UnicodeDecodeError) as exc:
                self._connection.close()
                raise StorageError(
                    f"cannot initialize SQLite storage at {path}: {exc}"
                ) from exc

    # -- binding ---------------------------------------------------------------

    def bind(self, database: "ServerDatabase") -> None:
        """Adopt ``database``: initialize metadata or verify it matches.

        Binding a *fresh* database onto an empty file writes the metadata
        and list rows.  Binding onto a file that already holds list content
        is rejected (load it with :meth:`load_database` instead — adopting
        it silently would shadow the stored state with an empty working
        set).  :meth:`load_database` binds the database it builds itself.
        """
        self._database = database
        if self._loading or self.readonly:
            return
        stored = dict(self._connection.execute(
            "SELECT key, value FROM meta"))
        if stored:
            raise StorageError(
                f"SQLite storage at {self.path or ':memory:'} already holds "
                f"a server database ({stored.get('prefix_bits', '?')}-bit "
                "prefixes); open it with load_server / "
                "SQLiteServerStorage.load_database instead of binding a "
                "fresh database over it"
            )
        self._list_ids = {list_db.descriptor.name: position
                          for position, list_db in enumerate(database)}
        with self._connection:
            self._connection.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                [("kind", "server"),
                 ("schema_version", str(SQLITE_SCHEMA_VERSION)),
                 ("prefix_bits", str(database.prefix_bits))],
            )
            self._connection.executemany(
                "INSERT INTO lists (name, position, provider, category, "
                "description, paper_prefix_count, digest_format, version) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                [self._list_row(position, list_db.descriptor, list_db.version)
                 for position, list_db in enumerate(database)],
            )

    @staticmethod
    def _list_row(position: int, descriptor: ListDescriptor,
                  version: int) -> tuple:
        return (descriptor.name, position, descriptor.provider.value,
                descriptor.category.value, descriptor.description,
                descriptor.paper_prefix_count, descriptor.digest_format,
                version)

    # -- the write-through journal ---------------------------------------------

    def record(self, list_name: str, op: tuple) -> None:
        if self.readonly:
            return
        self._journal.append((list_name, op))

    def pending_ops(self) -> int:
        return len(self._journal)

    def flush(self) -> int:
        """Apply the journal in one transaction; returns ops committed.

        Until this returns, a reader attached to the file sees the previous
        committed state — SQLite's transactionality is what makes the
        ingestion pipeline's reads versioned rather than torn.  Each run of
        consecutive ops with one code is one ``executemany``, in journal
        order.
        """
        if self.readonly:
            raise StorageError(
                f"SQLite storage at {self.path} is attached read-only; "
                "it cannot flush mutations"
            )
        journal = self._coalesce(self._journal)
        if not journal:
            self._journal.clear()
            return 0
        try:
            with self._connection:
                list_ids = self._list_ids
                for code, run in groupby(journal, key=lambda item: item[1][0]):
                    self._connection.executemany(
                        _OP_SQL[code],
                        [(list_ids[list_name], *op[1:])
                         for list_name, op in run])
                if self._database is not None:
                    dirty = {list_name for list_name, _ in journal}
                    self._connection.executemany(
                        "UPDATE lists SET version = ? WHERE name = ?",
                        [(self._database[name].version, name)
                         for name in sorted(dirty)],
                    )
        except sqlite3.Error as exc:
            raise StorageError(
                f"cannot flush {len(journal)} mutations to SQLite storage "
                f"at {self.path or ':memory:'}: {exc}"
            ) from exc
        applied = len(journal)
        self._journal.clear()
        return applied

    @staticmethod
    def _coalesce(journal: list[tuple[str, tuple]]) -> list[tuple[str, tuple]]:
        """Drop pending-queue inserts that a later clear in the same journal
        erases anyway — the common shape of an ingestion batch (every add
        pends a prefix, the batch-ending commit clears the queue into a
        chunk), which would otherwise write then delete one row per
        mutation."""
        cleared: set[tuple[str, int]] = {
            (list_name, op[1]) for list_name, op in journal
            if op[0] == OP_PENDING_CLEAR
        }
        if not cleared:
            return journal
        kept = []
        seen_clear: set[tuple[str, int]] = set()
        for list_name, op in reversed(journal):
            if op[0] == OP_PENDING_CLEAR:
                seen_clear.add((list_name, op[1]))
            elif (op[0] == OP_PENDING_ADD
                    and (list_name, op[1]) in seen_clear):
                continue
            kept.append((list_name, op))
        kept.reverse()
        return kept

    # -- loading ---------------------------------------------------------------

    def load_database(self) -> "ServerDatabase":
        """Rebuild a :class:`ServerDatabase` from the stored tables.

        Content — buckets, orphans, chunk history, pending mutations,
        versions — is observationally identical to the database that wrote
        the file, which the property suite pins; meta rows this build does
        not use (``index_backend``, ``shard_count``) are ignored.  The
        returned database keeps *this* storage attached: read-write
        attachments continue to persist future mutations, read-only ones
        serve a load and then drop records.
        """
        from repro.safebrowsing.database import ServerDatabase

        try:
            bits = int(self._read_meta()["prefix_bits"])
            lists = self._load_lists(bits)
        except (sqlite3.DatabaseError, UnicodeDecodeError, PrefixError,
                ProtocolError, TypeError, ValueError) as exc:
            # SQLite's own, or a corrupt row's (a wrong type or value).
            raise _unreadable(self.path or ":memory:", exc) from exc

        self._loading = True
        try:
            database = ServerDatabase(
                [list_db.descriptor for list_db in lists.values()], bits,
                storage=self,
            )
        finally:
            self._loading = False
        database._adopt_lists(lists)
        return database

    def _read_meta(self) -> dict[str, str]:
        """The ``meta`` table, checked to describe a server database this
        build reads, in a file whose b-trees SQLite finds intact: it keeps no
        page checksums, but a flipped root page number or a lost page
        shows."""
        source = self.path or ":memory:"
        meta = _checked_meta(self._connection, source,
                             {"server": SQLITE_SCHEMA_VERSION})
        (check,) = self._connection.execute("PRAGMA quick_check").fetchone()
        if check != "ok":
            raise StorageError(f"SQLite storage at {source} is corrupt: {check}")
        return meta

    def _load_lists(self, bits: int) -> dict[str, "ListDatabase"]:
        """Every stored list, rebuilt in its stored order."""
        lists: dict[str, "ListDatabase"] = {}
        rows = self._connection.execute(
            "SELECT name, position, provider, category, description, "
            "paper_prefix_count, digest_format, version FROM lists "
            "ORDER BY position").fetchall()
        self._list_ids = {row[0]: row[1] for row in rows}
        for (name, list_id, provider, category, description, paper_count,
             digest_format, version) in rows:
            if not all(isinstance(value, int) for value in (list_id, version)):
                raise StorageError(f"corrupt lists row {name!r}: a position "
                                   "or version that is not an integer")
            descriptor = ListDescriptor(
                name, ListProvider(provider), ThreatCategory(category),
                description, paper_count, digest_format)
            entries = self._connection.execute(
                "SELECT digest, expression FROM entries WHERE list_id = ? "
                "ORDER BY digest", (list_id,))
            orphans = [Prefix(prefix, bits) for (prefix,)
                       in self._connection.execute(
                           "SELECT prefix FROM orphans WHERE list_id = ?",
                           (list_id,))]
            add_chunks = self._load_chunks(name, list_id, ChunkKind.ADD, bits)
            sub_chunks = self._load_chunks(name, list_id, ChunkKind.SUB, bits)
            pending_additions = self._load_pending(list_id, PENDING_ADDITION,
                                                   bits)
            pending_removals = self._load_pending(list_id, PENDING_REMOVAL,
                                                  bits)
            lists[name] = materialize_list_database(
                descriptor, bits, version=version, entries=entries,
                orphans=orphans, add_chunks=add_chunks, sub_chunks=sub_chunks,
                pending_additions=pending_additions,
                pending_removals=pending_removals,
            )
        return lists

    def _load_chunks(self, list_name: str, list_id: int, kind: ChunkKind,
                     bits: int) -> list[Chunk]:
        rows = self._connection.execute(
            "SELECT number, referenced_add, prefixes FROM chunks "
            "WHERE list_id = ? AND kind = ? ORDER BY number",
            (list_id, CHUNK_KIND_CODES[kind]))
        chunks = []
        for number, referenced, blob in rows:
            try:
                prefixes = PrefixRun.from_packed(blob, bits)
            except PrefixError as exc:
                raise StorageError(
                    f"corrupt prefix blob in {kind.name.lower()} chunk "
                    f"{number} of {list_name!r}: {exc}") from exc
            chunks.append(Chunk(number=number, kind=kind, prefixes=prefixes,
                                referenced_add_chunk=referenced or None))
        return chunks

    def _load_pending(self, list_id: int, kind: int,
                      bits: int) -> list[Prefix]:
        rows = self._connection.execute(
            "SELECT prefix FROM pending WHERE list_id = ? AND kind = ? "
            "ORDER BY position", (list_id, kind))
        return [Prefix(value, bits) for (value,) in rows]

    # -- maintenance -----------------------------------------------------------

    def backup_to(self, path: str | Path) -> Path:
        """Copy the committed state to a new SQLite file at ``path``."""
        path = Path(path)
        try:
            target = sqlite3.connect(path)
            try:
                with target:
                    self._connection.backup(target)
            finally:
                target.close()
        except sqlite3.Error as exc:
            raise StorageError(
                f"cannot back up SQLite storage to {path}: {exc}") from exc
        return path

    def close(self) -> None:
        try:
            self._connection.close()
        except sqlite3.Error:  # pragma: no cover - close never fails in CPython
            pass


def build_server_storage(spec: "str | ServerStorage",
                         path: str | Path | None = None) -> ServerStorage:
    """Resolve a storage spec (a kind name or an instance) to an instance.

    ``path`` only makes sense for file-backed kinds; passing one with
    ``"memory"`` (or with an already-built instance) is an error rather
    than a silently ignored option.
    """
    if isinstance(spec, ServerStorage):
        if path is not None:
            raise StorageError(
                "storage_path cannot be combined with an already-built "
                "ServerStorage instance")
        return spec
    if spec == "memory":
        if path is not None:
            raise StorageError(
                "the memory storage backend does not take a storage_path; "
                "use storage='sqlite' for a file-backed database")
        return MemoryServerStorage()
    if spec == "sqlite":
        return SQLiteServerStorage(path)
    raise StorageError(
        f"unknown server storage kind {spec!r}; expected one of "
        f"{STORAGE_KINDS}")


def _unreadable(source: object, exc: Exception) -> StorageError:
    """The typed error for a file that cannot be read: an OS error, one
    SQLite itself raises (a corrupted file, or a foreign database without
    this schema), or a corrupt row's."""
    return StorageError(f"cannot read SQLite storage at {source}: {exc}")


def _check_sqlite_file(path: Path) -> None:
    """Raise :class:`StorageError` unless ``path`` holds one whole SQLite
    file: readable, not in the retired binary container, starting with the
    SQLite magic, and exactly as long as its header declares (neither cut
    short nor followed by trailing bytes)."""
    try:
        with open(path, "rb") as handle:
            head = handle.read(_SQLITE_HEADER.size)
        size = path.stat().st_size
    except OSError as exc:
        raise _unreadable(path, exc) from exc
    if head.startswith(RETIRED_MAGIC):
        raise StorageError(
            f"{path}: a binary SBSNAP snapshot, not a SQLite file; that "
            "container is no longer read — snapshots are SQLite files, which "
            "`snapshot save` (server) and save_client_snapshot (client) write")
    if not (head.startswith(SQLITE_MAGIC) or SQLITE_MAGIC.startswith(head)):
        raise StorageError(
            f"{path}: not a snapshot file (expected the SQLite magic "
            f"{SQLITE_MAGIC!r}, found {head[:len(SQLITE_MAGIC)]!r})")
    if len(head) < _SQLITE_HEADER.size:
        raise StorageError(f"{path}: snapshot truncated — {size} bytes is "
                           "shorter than the SQLite header")
    _, page_size, page_count = _SQLITE_HEADER.unpack_from(head)
    declared = page_count * (65536 if page_size == 1 else page_size)
    if size < declared:
        raise StorageError(f"{path}: snapshot truncated — the header "
                           f"declares {declared} bytes, the file holds {size}")
    if size > declared:
        raise StorageError(f"{path}: {size - declared} trailing bytes after "
                           f"the {declared} bytes the header declares")


def _checked_meta(connection: sqlite3.Connection, source: object,
              kinds: dict[str, int]) -> dict[str, str]:
    """The ``meta`` table of an open SQLite file, checked to name one of
    ``kinds`` (kind -> the schema version this build reads; no ``kind`` row
    means a server file) and a valid prefix width.  SQLite's own errors,
    undecodable text and missing or non-integer values raise
    :class:`StorageError`."""
    try:
        meta = dict(connection.execute("SELECT key, value FROM meta"))
    except (sqlite3.DatabaseError, UnicodeDecodeError) as exc:
        raise _unreadable(source, exc) from exc
    expected = " or ".join(kinds)
    if not meta:
        raise StorageError(f"SQLite storage at {source} holds no {expected} "
                           "database (empty meta table)")
    kind = meta.get("kind", "server")
    if kind not in kinds:
        raise StorageError(
            f"{source}: expected a {expected} snapshot, found a {kind} one")
    try:
        stored_version = int(meta.get("schema_version", "0"))
        _check_bits(int(meta["prefix_bits"]))
    except (KeyError, TypeError, ValueError, PrefixError) as exc:
        raise StorageError(f"SQLite storage at {source} holds a corrupt "
                           f"meta table: {exc!r}") from exc
    if stored_version != kinds[kind]:
        raise StorageError(
            f"SQLite storage at {source} uses schema version "
            f"{stored_version}; this build reads only version {kinds[kind]}: "
            "re-save it (`repro snapshot save` writes a server file)")
    return meta


def open_sqlite_file(path: Path, kinds: dict[str, int]
                     ) -> tuple[sqlite3.Connection, dict[str, str]]:
    """Open the whole SQLite file at ``path`` read-only with its checked
    ``meta`` (see :func:`_check_sqlite_file` and :func:`_checked_meta`)."""
    _check_sqlite_file(path)
    connection = sqlite3.connect(f"{path.resolve().as_uri()}?mode=ro",
                                 uri=True)
    try:
        return connection, _checked_meta(connection, path, kinds)
    except StorageError:
        connection.close()
        raise


def load_sqlite_server_database(path: str | Path, *,
                                writable: bool = False) -> "ServerDatabase":
    """Open the SQLite storage at ``path`` and rebuild its database.

    By default the file is attached *read-only* — the parallel fleet's
    workers all load the one committed handoff file concurrently this
    way — and once the working set is
    rebuilt the connection is closed and the database detaches to a
    :class:`MemoryServerStorage`: the result is a live in-memory *replica*
    of the committed state, holding no file handle across forks, whose
    further mutations stay local.  ``writable=True`` attaches read-write
    instead, so the returned database keeps persisting its mutations to
    the same file (the resume-a-provider path).  A file this build cannot
    load raises :class:`StorageError` and is left as it was.
    """
    path = Path(path)
    _check_sqlite_file(path)
    storage = SQLiteServerStorage(path, readonly=not writable)
    try:
        database = storage.load_database()
    except StorageError:
        storage.close()
        raise
    if not writable:
        storage.close()
        replica = MemoryServerStorage()
        database.storage = replica
        replica.bind(database)
        for list_db in database:
            list_db.attach_storage(replica)
    return database


def dump_database_to_sqlite(database: "ServerDatabase",
                            path: str | Path) -> Path:
    """Export the full state of ``database`` into a new SQLite file.

    The escape hatch for a *memory*-backed database (a SQLite-backed one
    persists incrementally and only needs a flush): the whole state is
    journalled as storage ops and flushed in one transaction, so the
    resulting file is indistinguishable from one written by a SQLite-backed
    twin that committed the same content.  An existing file at ``path`` is
    replaced.
    """
    path = Path(path)
    if path.exists():
        if database.storage.kind == "sqlite" and database.storage.path == path:
            raise StorageError(
                f"{path} is the live storage of this database; "
                "commit/flush it instead of dumping over it")
        path.unlink()
    storage = SQLiteServerStorage(path)
    try:
        storage.bind(database)
        for list_db in database:
            name = list_db.descriptor.name
            expressions = {full_hash.digest: expression for expression,
                           full_hash in list_db._expressions.items()}
            for value in sorted(list_db._full_hashes):
                for full_hash in list_db._full_hashes[value]:
                    storage.record(name, (OP_ENTRY_ADD, full_hash.digest,
                                          expressions.get(full_hash.digest)))
            for value in sorted(list_db._orphans):
                storage.record(name, (OP_ORPHAN_ADD, value))
            for chunk in (*list_db.add_chunks, *list_db.sub_chunks):
                storage.record(name, (OP_CHUNK, CHUNK_KIND_CODES[chunk.kind],
                                      chunk.number,
                                      chunk.referenced_add_chunk or 0,
                                      chunk.prefixes.packed))
            for prefix in list_db._pending_additions:
                storage.record(name, (OP_PENDING_ADD, PENDING_ADDITION,
                                      prefix.value))
            for prefix in list_db._pending_removals:
                storage.record(name, (OP_PENDING_ADD, PENDING_REMOVAL,
                                      prefix.value))
        storage.flush()
    finally:
        storage.close()
    return path


def sqlite_storage_summary(path: str | Path) -> tuple[dict, list[dict]]:
    """Summarize a SQLite storage file without materializing a database.

    Returns ``(meta, lists)``: the raw ``meta`` table as a dict, and one
    dict per stored list — ``name``, ``version``, ``prefixes`` (distinct
    digest prefixes + orphans, matching
    :meth:`ListDatabase.prefix_count`), and ``full_hashes``.  All counting
    runs as SQL aggregates; inspecting a paper-scale file costs one scan
    of each list's primary-key range, not a restore.
    """
    path = Path(path)
    connection, meta = open_sqlite_file(path, {"server": SQLITE_SCHEMA_VERSION})
    try:
        rows = connection.execute(
            "SELECT l.name, l.version, "
            "  (SELECT COUNT(DISTINCT substr(e.digest, 1, ?)) FROM entries e "
            "     WHERE e.list_id = l.position) "
            "  + (SELECT COUNT(*) FROM orphans o "
            "       WHERE o.list_id = l.position), "
            "  (SELECT COUNT(*) FROM entries e "
            "     WHERE e.list_id = l.position) "
            "FROM lists l ORDER BY l.position",
            (int(meta["prefix_bits"]) // 8,)).fetchall()
    except (sqlite3.DatabaseError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from exc
    finally:
        connection.close()
    return meta, [
        {"name": name, "version": version, "prefixes": prefixes,
         "full_hashes": full_hashes}
        for name, version, prefixes, full_hashes in rows
    ]


def materialize_list_database(
        descriptor: ListDescriptor, bits: int, *, version: int,
        entries: Iterable[tuple[bytes, str | None]],
        orphans: Iterable[Prefix],
        add_chunks: Sequence[Chunk], sub_chunks: Sequence[Chunk],
        pending_additions: Sequence[Prefix],
        pending_removals: Sequence[Prefix]) -> "ListDatabase":
    """Build one :class:`ListDatabase` from durable state.

    ``entries`` are ``(digest, expression)`` rows in digest order, the
    expression ``None`` for a digest added bare.  Each digest joins the
    bucket named by its first ``bits // 8`` bytes, so buckets fill already
    digest-sorted and no expression is hashed again.  The rows come from a
    file, so a digest that is not 32 bytes, or an expression that is not
    text, raises :class:`StorageError`.
    """
    from repro.safebrowsing.database import ListDatabase

    list_db = ListDatabase(descriptor, bits)
    width = bits // 8
    buckets = list_db._full_hashes
    expressions = list_db._expressions
    for digest, expression in entries:
        if (not isinstance(digest, bytes) or len(digest) != _DIGEST_BYTES
                or not isinstance(expression, (str, type(None)))):
            raise StorageError(
                f"corrupt entry digest in {descriptor.name!r}: not a "
                f"{_DIGEST_BYTES}-byte blob beside a text expression or NULL")
        full_hash = _valid_full_hash(digest)
        key = digest[:width]
        buckets[key] = (*buckets.get(key, ()), full_hash)
        if expression is not None:
            expressions[expression] = full_hash
    list_db._orphans = {orphan.value for orphan in orphans}
    list_db._add_chunks = list(add_chunks)
    list_db._sub_chunks = list(sub_chunks)
    list_db._pending_additions = list(pending_additions)
    list_db._pending_removals = list(pending_removals)
    list_db.version = version
    return list_db
