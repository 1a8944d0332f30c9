"""Persistent snapshots: save and warm-start client and server databases.

The paper's privacy analysis only makes sense because Safe Browsing clients
keep their prefix database *across sessions* — the deployed clients persist
the delta-coded table on disk and resync with incremental add/sub chunks
instead of re-downloading the lists on every start.  This module gives the
reproduction the same property end to end, with one format for both sides:
a SQLite file whose ``meta`` table names its ``kind``, ``schema_version``
and ``prefix_bits``, read and checked by :mod:`repro.safebrowsing.storage`:

* **client snapshots** add a ``backend`` meta row and one ``lists`` row per
  subscribed list (``_CLIENT_SCHEMA``) holding a SHA-256 bound to the
  backend and width — SQLite does not checksum pages, so the digest is
  what turns a flipped payload byte into an error;
* **server snapshots** are the storage files holding a whole
  :class:`~repro.safebrowsing.database.ServerDatabase` — full-hash
  buckets, orphans, expressions, the add/sub chunk history, pending
  mutations and per-list versions;
* **warm start**: :func:`restore_client_snapshot` reloads a freshly
  constructed :class:`~repro.safebrowsing.client.SafeBrowsingClient` so its
  next update poll fetches only the chunks committed since the snapshot.
  Each verified packed run reaches the store as one
  :class:`~repro.hashing.prefix.PrefixRun`, which the ``numpy`` backend
  reads with a single ``frombuffer``;
* **loud failure**: every unusable snapshot — truncated or followed by
  trailing bytes, checksum mismatch, unknown schema version, wrong kind, a
  malformed or foreign SQLite file, a file in the retired binary ``SBSNAP``
  container, or written for a different or unregistered backend / prefix
  width / list set — raises a typed :class:`~repro.exceptions.SnapshotError`
  stating what was expected and what was found.  A snapshot is never
  partially applied: restores stage everything before mutating the target.

The fleet simulator builds on this for churn
(``FleetConfig(churn_fraction=..., restart_interval=...)``) and for the
parallel engine's server handoff, the CLI exposes ``snapshot save|load``,
and ``benchmarks/bench_warm_start.py`` measures the update bandwidth a warm
start saves over a cold one.
"""

from __future__ import annotations

import hashlib
import sqlite3
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.datastructures.bloom import BloomFilter, BloomPrefixStore
from repro.datastructures.memory import STORE_FACTORIES
from repro.datastructures.store import PrefixStore
from repro.exceptions import SnapshotError, StorageError
from repro.hashing.prefix import PrefixRun
from repro.safebrowsing.database import ServerDatabase
from repro.safebrowsing.storage import (
    SQLITE_SCHEMA_VERSION,
    dump_database_to_sqlite,
    load_sqlite_server_database,
    open_sqlite_file,
    sqlite_storage_summary,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (client imports us)
    from repro.clock import Clock
    from repro.safebrowsing.client import SafeBrowsingClient
    from repro.safebrowsing.server import SafeBrowsingServer, ServerCore

#: Schema version of the client file this build writes (and the only one it
#: reads); version 1 was the retired binary container.
FORMAT_VERSION = 2

_CLIENT_SCHEMA = """
PRAGMA journal_mode = OFF; PRAGMA synchronous = OFF; -- torn files fail to load
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
) WITHOUT ROWID;
CREATE TABLE lists (
    position       INTEGER PRIMARY KEY,
    name           TEXT NOT NULL,
    add_chunks     BLOB NOT NULL,
    sub_chunks     BLOB NOT NULL,
    bloom_capacity INTEGER,
    bloom_rate     REAL,
    bloom_size     INTEGER,
    store          BLOB NOT NULL,
    sha256         BLOB NOT NULL
);
"""


def _store_columns(store: PrefixStore) -> tuple:
    """The ``(bloom_capacity, bloom_rate, bloom_size, store)`` columns of
    one client store: NULL geometry and a sorted packed run of prefix values
    for exact stores (a ``numpy`` store reads it with one ``frombuffer``),
    or the geometry and bit array of a Bloom filter, which cannot enumerate
    its members."""
    if isinstance(store, BloomPrefixStore):
        bloom = store.filter
        return (bloom.capacity, bloom.false_positive_rate, len(store),
                bloom.bit_bytes())
    return None, None, None, b"".join(sorted(p.value for p in store))  # type: ignore[attr-defined]


def _build_store(backend: str, bits: int, capacity: int | None,
                 rate: float | None, size: int | None, blob: bytes) -> PrefixStore:
    """The store :func:`_store_columns` describes; a packed run reaches the
    backend as one :class:`PrefixRun`."""
    if capacity is None:
        return STORE_FACTORIES[backend](PrefixRun.from_packed(blob, bits),
                                        bits=bits)
    return BloomPrefixStore.from_filter(
        BloomFilter.from_state(capacity, rate, size, blob), bits, size=size)


def _row_checksum(backend: str, bits: int, list_count: int, row: tuple) -> bytes:
    """SHA-256 over one ``lists`` row, bound to the meta values that
    interpret it (backend, width) and to the number of rows: the ``repr``
    of the small fields (so a changed column type is a change), then the
    store blob."""
    *fields, store = row
    digest = hashlib.sha256(
        repr((backend, bits, list_count, *fields, type(store))).encode())
    digest.update(store if isinstance(store, bytes) else repr(store).encode())
    return digest.digest()


def _write_client_file(path: Path, backend: str, bits: int,
                       lists: list[tuple]) -> Path:
    """Write a client file, replacing any file at ``path``; each of
    ``lists`` is ``(name, add_numbers, sub_numbers, *store_columns)``."""
    rows = []
    for position, (name, adds, subs, *store) in enumerate(lists):
        row = (position, name, struct.pack(f">{len(adds)}I", *sorted(adds)),
               struct.pack(f">{len(subs)}I", *sorted(subs)), *store)
        rows.append((*row, _row_checksum(backend, bits, len(lists), row)))
    try:
        path.unlink(missing_ok=True)
        connection = sqlite3.connect(path)
        try:
            with connection:
                connection.executescript(_CLIENT_SCHEMA)
                connection.executemany("INSERT INTO meta VALUES (?, ?)", [
                    ("kind", "client"), ("schema_version", str(FORMAT_VERSION)),
                    ("backend", backend), ("prefix_bits", str(bits))])
                connection.executemany(
                    "INSERT INTO lists VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)", rows)
        finally:
            connection.close()
    except (OSError, sqlite3.Error) as exc:
        raise SnapshotError(f"cannot write snapshot {path}: {exc}") from exc
    return path


def _read_client_file(path: Path) -> tuple[str, int, list[tuple]]:
    """``(backend, bits, rows)`` of the client file at ``path``, every
    row's checksum verified; a row is ``(name, add_chunks, sub_chunks,
    *store_columns)``."""
    try:
        connection, meta = open_sqlite_file(path, {"client": FORMAT_VERSION})
        try:
            rows = connection.execute(
                "SELECT * FROM lists ORDER BY position").fetchall()
        finally:
            connection.close()
    except StorageError as exc:
        raise SnapshotError(str(exc)) from exc
    except (sqlite3.DatabaseError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    backend, bits = meta.get("backend"), int(meta["prefix_bits"])
    if backend not in STORE_FACTORIES:
        raise SnapshotError(
            f"{path}: snapshot was written by store backend {backend!r}, "
            f"which this build does not provide; expected one of "
            f"{sorted(STORE_FACTORIES)}")
    for *row, checksum in rows:
        if _row_checksum(backend, bits, len(rows), tuple(row)) != checksum:
            raise SnapshotError(
                f"{path}: checksum mismatch in list row {row[0]!r} — the "
                "snapshot was corrupted after it was written")
    return backend, bits, [row[1:-1] for row in rows]


def save_client_snapshot(client: "SafeBrowsingClient",
                         path: str | Path) -> Path:
    """Write ``client``'s snapshot to ``path``; returns the path written.

    The snapshot carries what a deployed client persists across restarts:
    the store backend name, the prefix width, and — per subscribed list —
    the held add/sub chunk numbers plus the store contents.  Volatile state
    (full-hash cache, memos, scheduler backoff) is deliberately excluded.
    """
    lists = [(name, client._lists[name].add_chunks.numbers,
              client._lists[name].sub_chunks.numbers,
              *_store_columns(client._lists[name].store))
             for name in client.subscribed_lists]
    return _write_client_file(Path(path), client.config.store_backend,
                              client.config.prefix_bits, lists)


def restore_client_snapshot(client: "SafeBrowsingClient",
                            path: str | Path) -> int:
    """Warm-start ``client`` from the snapshot at ``path``.

    The client must have been constructed with the same store backend,
    prefix width and subscribed list set the snapshot was written with
    (mismatches raise :class:`SnapshotError` naming both sides).  On
    success every subscribed list's store and chunk ranges are replaced by
    the snapshot state, the store-derived memos are dropped, and the number
    of restored prefixes is returned — the client's next
    :meth:`~repro.safebrowsing.client.SafeBrowsingClient.update` then
    fetches only the chunks committed after the snapshot.  Every row's
    checksum is verified before any store is built, and each packed run
    reaches the backend as one :class:`PrefixRun`.  A backend this build
    does not register (a retired one, or ``numpy`` without numpy) raises
    :class:`SnapshotError`.
    """
    path = Path(path)
    backend, bits, records = _read_client_file(path)
    if backend != client.config.store_backend:
        raise SnapshotError(
            f"{path}: snapshot was written by store backend {backend!r}, "
            f"this client uses {client.config.store_backend!r}"
        )
    if bits != client.config.prefix_bits:
        raise SnapshotError(
            f"{path}: snapshot holds {bits}-bit prefixes, this client uses "
            f"{client.config.prefix_bits}-bit ones"
        )
    snapshot_lists = {record[0] for record in records}
    subscribed = set(client.subscribed_lists)
    if snapshot_lists != subscribed:
        raise SnapshotError(
            f"{path}: snapshot covers lists {sorted(snapshot_lists)}, "
            f"this client subscribes to {sorted(subscribed)}"
        )

    # Stage every store before touching the client, so a bad record can
    # never leave it half-restored.
    staged: dict[str, tuple[PrefixStore, tuple, tuple]] = {}
    for list_name, adds, subs, capacity, rate, size, blob in records:
        if capacity is not None and backend != "bloom":
            raise SnapshotError(
                f"{path}: list {list_name!r} holds a Bloom payload but "
                f"the snapshot backend is {backend!r}"
            )
        staged[list_name] = (
            _build_store(backend, bits, capacity, rate, size, blob),
            struct.unpack(f">{len(adds) // 4}I", adds),
            struct.unpack(f">{len(subs) // 4}I", subs))

    restored_prefixes = 0
    for list_name, (store, add_numbers, sub_numbers) in staged.items():
        state = client._lists[list_name]
        state.store = store
        state.add_chunks.numbers.clear()
        state.add_chunks.numbers.update(add_numbers)
        state.sub_chunks.numbers.clear()
        state.sub_chunks.numbers.update(sub_numbers)
        restored_prefixes += len(store)
    client._invalidate_store_memos()
    return restored_prefixes


def save_server_snapshot(server: "ServerCore | ServerDatabase",
                         path: str | Path) -> Path:
    """Write a server (or bare database) snapshot to ``path`` as SQLite.

    For a SQLite-backed database this is the O(changed) path: flush the
    journal, then reuse (or, for a different target path, ``backup``) the
    live file — no re-serialize of unchanged state.  A memory-backed
    database is exported whole via
    :func:`~repro.safebrowsing.storage.dump_database_to_sqlite`.  Restore
    with :func:`load_server` / :func:`load_server_database`.
    """
    database = server if isinstance(server, ServerDatabase) else server.database
    path = Path(path)
    storage = database.storage
    if storage.kind == "sqlite" and not storage.readonly:
        # Persist the journalled content including still-pending mutations,
        # without forcing them into chunks (that is commit()'s job, not
        # save's).
        storage.flush()
        database._committed_version = database.version
        if storage.path is not None and storage.path.resolve() == path.resolve():
            return path
        return storage.backup_to(path)
    return dump_database_to_sqlite(database, path)


def load_server_database(path: str | Path, *,
                         writable: bool = False) -> ServerDatabase:
    """Rebuild a :class:`ServerDatabase` from the SQLite file at ``path``
    with :func:`~repro.safebrowsing.storage.load_sqlite_server_database`
    (read-only by default; ``writable=True`` keeps the file as the live
    storage of the result); every unusable file raises
    :class:`SnapshotError`.  The property suite pins the restored content
    observationally identical to the database that was saved."""
    try:
        return load_sqlite_server_database(path, writable=writable)
    except StorageError as exc:
        raise SnapshotError(str(exc)) from exc


def load_server(path: str | Path, *, clock: "Clock | None" = None,
                writable: bool = False,
                **server_kwargs) -> "SafeBrowsingServer":
    """Build a ready-to-serve :class:`SafeBrowsingServer` from a snapshot.

    Restores the database from the SQLite file with
    :func:`load_server_database`, then wraps it in a fresh server (request log and caches start empty — they
    are volatile serving state, not durable content).  Extra keyword
    arguments are forwarded to the server constructor (``poll_interval``,
    ``max_log_entries``, ...).
    """
    from repro.safebrowsing.server import SafeBrowsingServer

    database = load_server_database(path, writable=writable)
    descriptors = [list_db.descriptor for list_db in database]
    server = SafeBrowsingServer(
        descriptors, clock=clock, prefix_bits=database.prefix_bits,
        **server_kwargs,
    )
    server.database = database
    return server


@dataclass(frozen=True, slots=True)
class ListSummary:
    """Per-list summary inside a :class:`SnapshotInfo`.

    ``full_hashes`` and ``version`` are server-side notions; client
    snapshots (which persist only prefixes and chunk ranges) report
    ``None`` for both.
    """

    name: str
    prefixes: int
    full_hashes: int | None = None
    version: int | None = None


@dataclass(frozen=True, slots=True)
class SnapshotInfo:
    """Checked summary of a snapshot file (the CLI's ``snapshot load``).

    Attributes
    ----------
    kind:
        ``"client"`` or ``"server"``.
    format_version:
        The SQLite schema version of the file.
    prefix_bits:
        Width of the stored prefixes.
    backend:
        Client store backend; ``"raw"`` for server files, which hold raw
        prefix bytes and no store.
    lists:
        One :class:`ListSummary` per stored list — name, prefix count,
        and (server snapshots) full-hash count and mutation ``version``.
    payload_bytes:
        Size of the file.
    """

    kind: str
    format_version: int
    prefix_bits: int
    backend: str
    lists: tuple[ListSummary, ...]
    payload_bytes: int

    @property
    def total_prefixes(self) -> int:
        """Prefixes across every stored list."""
        return sum(summary.prefixes for summary in self.lists)

    @property
    def total_full_hashes(self) -> int | None:
        """Full digests across every stored list (``None`` for clients)."""
        if any(summary.full_hashes is None for summary in self.lists):
            return None
        return sum(summary.full_hashes for summary in self.lists)


def inspect_snapshot(path: str | Path) -> SnapshotInfo:
    """Validate the snapshot at ``path`` and summarize its contents.

    Both kinds are summarized without building any store, membership index
    or database: a client file costs one read of its rows (every checksum
    verified), a server file a handful of SQL aggregates.  Server summaries
    report the per-list mutation ``version`` and full-hash count alongside
    the prefix count, so ``snapshot load --summary`` can answer "what state
    is this file?" without a restore.
    """
    path = Path(path)
    try:
        connection, meta = open_sqlite_file(
            path, {"client": FORMAT_VERSION, "server": SQLITE_SCHEMA_VERSION})
        connection.close()
        if meta.get("kind", "server") == "server":
            meta, rows = sqlite_storage_summary(path)
            lists = tuple(ListSummary(row["name"], row["prefixes"],
                                      row["full_hashes"], row["version"])
                          for row in rows)
            return SnapshotInfo("server", int(meta["schema_version"]),
                                int(meta["prefix_bits"]), "raw", lists,
                                path.stat().st_size)
    except StorageError as exc:
        raise SnapshotError(str(exc)) from exc
    backend, bits, records = _read_client_file(path)
    lists = tuple(
        ListSummary(name, len(blob) // (bits // 8) if size is None else size)
        for name, _, _, _, _, size, blob in records)
    return SnapshotInfo("client", FORMAT_VERSION, bits, backend, lists,
                        path.stat().st_size)
