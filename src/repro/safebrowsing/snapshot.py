"""Persistent snapshots: save and warm-start client and server databases.

The paper's privacy analysis only makes sense because Safe Browsing clients
keep their prefix database *across sessions* — the deployed clients persist
the delta-coded table on disk and resync with incremental add/sub chunks
instead of re-downloading the lists on every start.  This module gives the
reproduction the same property end to end, with one format per side:

* **client snapshots** use a **versioned binary format** (magic, kind,
  format version, payload length, SHA-256 checksum) that serializes any
  client database (every registered store backend, chunk ranges);
* **server snapshots** are SQLite storage files
  (:mod:`repro.safebrowsing.storage`) holding a whole
  :class:`~repro.safebrowsing.database.ServerDatabase` — full-hash
  buckets, orphans, expressions, the add/sub chunk history, pending
  mutations and per-list versions;
* **warm start**: :func:`restore_client_snapshot` reloads a freshly
  constructed :class:`~repro.safebrowsing.client.SafeBrowsingClient` so its
  next update poll fetches only the chunks committed since the snapshot.
  Each verified packed section reaches the store as one
  :class:`~repro.hashing.prefix.PrefixRun`, which the ``numpy`` backend
  reads with a single ``frombuffer``;
* **loud failure**: every unusable snapshot — truncated, checksum mismatch,
  unknown format version, wrong kind, a malformed or foreign SQLite file,
  or written for a different or unregistered backend / prefix width /
  list set — raises a typed :class:`~repro.exceptions.SnapshotError`
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
    SQLITE_MAGIC,
    dump_database_to_sqlite,
    load_sqlite_server_database,
    sqlite_storage_summary,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (client imports us)
    from repro.clock import Clock
    from repro.safebrowsing.client import SafeBrowsingClient
    from repro.safebrowsing.server import SafeBrowsingServer, ServerCore

#: File magic of every snapshot.
MAGIC = b"SBSNAP"

#: Format version this build writes (and the only one it reads).
FORMAT_VERSION = 1

#: Snapshot kind of a client snapshot (the ``kind`` byte of the header).
KIND_CLIENT = 1

#: Kind byte of the retired binary server container; such files are
#: recognized only to be rejected with a pointer to the SQLite format.
_BINARY_SERVER_KIND = 2

#: ``magic, kind, reserved, format_version, payload_length, sha256(payload)``.
_HEADER = struct.Struct("<6sBBHQ32s")

#: Per-list store payload encodings.
_STORE_PACKED = 1   # sorted run of raw prefix values (exact stores)
_STORE_BLOOM = 2    # Bloom filter geometry + bit array


# ---------------------------------------------------------------------------
# low-level payload encoding
# ---------------------------------------------------------------------------


class _Writer:
    """Append-only binary payload builder."""

    def __init__(self) -> None:
        self._chunks: list[bytes] = []

    def raw(self, data: bytes) -> None:
        self._chunks.append(data)

    def u8(self, value: int) -> None:
        self.raw(value.to_bytes(1, "little"))

    def u16(self, value: int) -> None:
        self.raw(value.to_bytes(2, "little"))

    def u32(self, value: int) -> None:
        self.raw(value.to_bytes(4, "little"))

    def u64(self, value: int) -> None:
        self.raw(value.to_bytes(8, "little"))

    def f64(self, value: float) -> None:
        self.raw(struct.pack("<d", value))

    def string(self, text: str) -> None:
        data = text.encode("utf-8")
        self.u16(len(data))
        self.raw(data)

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class _Reader:
    """Bounds-checked payload reader; overruns raise :class:`SnapshotError`."""

    def __init__(self, payload: bytes) -> None:
        self._payload = payload
        self.pos = 0

    def raw(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self._payload):
            raise SnapshotError(
                f"snapshot truncated: needed {count} bytes at payload offset "
                f"{self.pos}, only {len(self._payload) - self.pos} remain"
            )
        data = self._payload[self.pos:end]
        self.pos = end
        return bytes(data)

    def u8(self) -> int:
        return int.from_bytes(self.raw(1), "little")

    def u16(self) -> int:
        return int.from_bytes(self.raw(2), "little")

    def u32(self) -> int:
        return int.from_bytes(self.raw(4), "little")

    def u64(self) -> int:
        return int.from_bytes(self.raw(8), "little")

    def f64(self) -> float:
        return struct.unpack("<d", self.raw(8))[0]

    def string(self) -> str:
        length = self.u16()
        try:
            return self.raw(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotError(f"snapshot holds undecodable text: {exc}") from exc

    def expect_end(self) -> None:
        if self.pos != len(self._payload):
            raise SnapshotError(
                f"snapshot payload has {len(self._payload) - self.pos} "
                "trailing bytes after the last record"
            )


def _read_file(path: Path) -> bytes:
    """Read a snapshot file, folding OS errors into :class:`SnapshotError`."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc


def _write_file(path: Path, data: bytes) -> None:
    """Write a snapshot file, folding OS errors into :class:`SnapshotError`."""
    try:
        path.write_bytes(data)
    except OSError as exc:
        raise SnapshotError(f"cannot write snapshot {path}: {exc}") from exc


def _frame(payload: bytes) -> bytes:
    """Wrap a payload in the versioned, checksummed container."""
    checksum = hashlib.sha256(payload).digest()
    header = _HEADER.pack(MAGIC, KIND_CLIENT, 0, FORMAT_VERSION, len(payload),
                          checksum)
    return header + payload


def _read_frame(data: bytes, source: str) -> bytes:
    """Validate the container of a client snapshot and return its payload.

    Checks, in order: magic, format version, declared payload length
    (truncation), checksum, and kind — each failure raises a
    :class:`SnapshotError` naming what was expected and what was found.
    """
    if data.startswith(SQLITE_MAGIC):
        raise SnapshotError(
            f"{source}: expected a client snapshot, found a server one "
            "(a SQLite storage file)"
        )
    if len(data) < _HEADER.size:
        raise SnapshotError(
            f"{source}: snapshot truncated — {len(data)} bytes is shorter "
            f"than the {_HEADER.size}-byte header"
        )
    magic, kind, _, version, payload_length, checksum = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise SnapshotError(
            f"{source}: not a snapshot file (expected magic {MAGIC!r}, "
            f"found {magic!r})"
        )
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"{source}: unsupported snapshot format version {version}; "
            f"this build reads version {FORMAT_VERSION}"
        )
    payload = data[_HEADER.size:_HEADER.size + payload_length]
    if len(payload) != payload_length:
        raise SnapshotError(
            f"{source}: snapshot truncated — header declares a "
            f"{payload_length}-byte payload, file holds {len(payload)}"
        )
    trailing = len(data) - _HEADER.size - payload_length
    if trailing:
        # A concatenated or partially overwritten file may still carry an
        # intact leading frame; loading it silently would serve stale state.
        raise SnapshotError(
            f"{source}: {trailing} trailing bytes after the declared "
            f"{payload_length}-byte payload — not a single intact snapshot"
        )
    if hashlib.sha256(payload).digest() != checksum:
        raise SnapshotError(
            f"{source}: checksum mismatch — the snapshot payload was "
            "corrupted after it was written"
        )
    if kind == _BINARY_SERVER_KIND:
        raise _retired_server_blob(source)
    if kind != KIND_CLIENT:
        raise SnapshotError(f"{source}: unknown snapshot kind {kind}")
    return payload


# ---------------------------------------------------------------------------
# store sections
# ---------------------------------------------------------------------------


def _write_store(writer: _Writer, store: PrefixStore, bits: int) -> None:
    """Serialize one client-side store.

    Exact stores (raw, delta-coded, numpy) serialize as a sorted packed run
    of raw prefix values — the layout a ``numpy`` store reads back with one
    ``frombuffer``.  The Bloom filter, which cannot enumerate its members, serializes its
    geometry plus the bit array verbatim.
    """
    if isinstance(store, BloomPrefixStore):
        bloom = store.filter
        writer.u8(_STORE_BLOOM)
        writer.u64(bloom.capacity)
        writer.f64(bloom.false_positive_rate)
        writer.u64(len(store))
        bit_bytes = bloom.bit_bytes()
        writer.u32(len(bit_bytes))
        writer.raw(bit_bytes)
        return
    values = sorted(prefix.value for prefix in store)  # type: ignore[attr-defined]
    writer.u8(_STORE_PACKED)
    writer.u64(len(values))
    writer.raw(b"".join(values))


def _read_store(reader: _Reader, bits: int
                ) -> tuple[int, PrefixRun | tuple[int, float, int, bytes]]:
    """Parse one store section.

    Returns ``(encoding, state)``: the packed values as one
    :class:`PrefixRun` for exact stores, or the Bloom filter's
    ``(capacity, rate, size, bit_bytes)``.
    """
    encoding = reader.u8()
    if encoding == _STORE_PACKED:
        count = reader.u64()
        return encoding, PrefixRun.from_packed(reader.raw(count * (bits // 8)),
                                               bits)
    if encoding == _STORE_BLOOM:
        capacity = reader.u64()
        rate = reader.f64()
        size = reader.u64()
        bit_length = reader.u32()
        bit_bytes = reader.raw(bit_length)
        return encoding, (capacity, rate, size, bit_bytes)
    raise SnapshotError(f"unknown store encoding {encoding} in snapshot")


def _registered_backend(backend: str, source: object) -> str:
    """``backend`` if it names a registered store, else :class:`SnapshotError`
    (a snapshot written by a retired or unavailable backend)."""
    if backend not in STORE_FACTORIES:
        raise SnapshotError(
            f"{source}: snapshot was written by store backend {backend!r}, "
            f"which this build does not provide; expected one of "
            f"{sorted(STORE_FACTORIES)}"
        )
    return backend


# ---------------------------------------------------------------------------
# client snapshots
# ---------------------------------------------------------------------------


def client_snapshot_bytes(client: "SafeBrowsingClient") -> bytes:
    """Serialize ``client``'s durable database state to snapshot bytes.

    The snapshot carries what a deployed client persists across restarts:
    the store backend name, the prefix width, and — per subscribed list —
    the held add/sub chunk numbers plus the store contents.  Volatile state
    (full-hash cache, memos, scheduler backoff) is deliberately excluded.
    """
    writer = _Writer()
    writer.string(client.config.store_backend)
    writer.u16(client.config.prefix_bits)
    writer.u32(len(client.subscribed_lists))
    for list_name in client.subscribed_lists:
        state = client._lists[list_name]
        writer.string(list_name)
        for numbers in (sorted(state.add_chunks.numbers),
                        sorted(state.sub_chunks.numbers)):
            writer.u32(len(numbers))
            for number in numbers:
                writer.u32(number)
        _write_store(writer, state.store, client.config.prefix_bits)
    return _frame(writer.getvalue())


def save_client_snapshot(client: "SafeBrowsingClient",
                         path: str | Path) -> Path:
    """Write ``client``'s snapshot to ``path``; returns the path written."""
    path = Path(path)
    _write_file(path, client_snapshot_bytes(client))
    return path


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
    fetches only the chunks committed after the snapshot.

    The whole file is read and its checksum verified before any store is
    built; each packed section then reaches the backend as one
    :class:`PrefixRun`.  A snapshot written by a backend this build does
    not register (a retired one, or ``numpy`` without numpy) raises
    :class:`SnapshotError`.
    """
    path = Path(path)
    data = _read_file(path)
    payload = _read_frame(data, str(path))
    reader = _Reader(payload)

    backend = _registered_backend(reader.string(), path)
    if backend != client.config.store_backend:
        raise SnapshotError(
            f"{path}: snapshot was written by store backend {backend!r}, "
            f"this client uses {client.config.store_backend!r}"
        )
    bits = reader.u16()
    if bits != client.config.prefix_bits:
        raise SnapshotError(
            f"{path}: snapshot holds {bits}-bit prefixes, this client uses "
            f"{client.config.prefix_bits}-bit ones"
        )
    list_count = reader.u32()
    records = []
    for _ in range(list_count):
        list_name = reader.string()
        add_numbers = [reader.u32() for _ in range(reader.u32())]
        sub_numbers = [reader.u32() for _ in range(reader.u32())]
        encoding, state = _read_store(reader, bits)
        records.append((list_name, add_numbers, sub_numbers, encoding, state))
    reader.expect_end()

    snapshot_lists = {record[0] for record in records}
    subscribed = set(client.subscribed_lists)
    if snapshot_lists != subscribed:
        raise SnapshotError(
            f"{path}: snapshot covers lists {sorted(snapshot_lists)}, "
            f"this client subscribes to {sorted(subscribed)}"
        )

    # Stage every store before touching the client, so a bad record can
    # never leave it half-restored.
    backend_cls = STORE_FACTORIES[backend]
    staged: dict[str, tuple[PrefixStore, list[int], list[int], int]] = {}
    for list_name, add_numbers, sub_numbers, encoding, state in records:
        store: PrefixStore
        if encoding == _STORE_BLOOM:
            if backend != "bloom":
                raise SnapshotError(
                    f"{path}: list {list_name!r} holds a Bloom payload but "
                    f"the snapshot backend is {backend!r}"
                )
            capacity, rate, size, bit_bytes = state
            store = BloomPrefixStore.from_filter(
                BloomFilter.from_state(capacity, rate, size, bit_bytes),
                bits, size=size,
            )
        else:
            store = backend_cls(state, bits=bits)
        staged[list_name] = (store, add_numbers, sub_numbers,
                             len(store))

    restored_prefixes = 0
    for list_name, (store, add_numbers, sub_numbers, size) in staged.items():
        state = client._lists[list_name]
        state.store = store
        state.add_chunks.numbers.clear()
        state.add_chunks.numbers.update(add_numbers)
        state.sub_chunks.numbers.clear()
        state.sub_chunks.numbers.update(sub_numbers)
        restored_prefixes += size
    client._invalidate_store_memos()
    return restored_prefixes


# ---------------------------------------------------------------------------
# server snapshots
# ---------------------------------------------------------------------------


def _retired_server_blob(source: object) -> SnapshotError:
    """The error for a file in the retired binary server container."""
    return SnapshotError(
        f"{source}: this is a binary SBSNAP server snapshot; that container "
        "is no longer read — server state is stored as SQLite, which "
        "`snapshot save` writes"
    )


def _read_head(path: Path) -> bytes:
    """The first header-sized bytes of ``path``, enough to tell the kinds
    apart.  A retired binary server blob raises here, so no caller can
    mistake it for a client snapshot or a foreign file."""
    try:
        with open(path, "rb") as handle:
            head = handle.read(_HEADER.size)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if head.startswith(MAGIC + bytes([_BINARY_SERVER_KIND])):
        raise _retired_server_blob(path)
    return head


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
    """Rebuild a :class:`ServerDatabase` from the SQLite file at ``path``.

    Loads go through
    :func:`~repro.safebrowsing.storage.load_sqlite_server_database`
    (read-only attach by default; ``writable=True`` keeps the file as the
    live storage of the result).  The restored content — membership,
    versions, chunk history — is observationally identical to the database
    that was saved, which the property suite pins.
    Every unusable file raises :class:`SnapshotError`.
    """
    path = Path(path)
    head = _read_head(path)
    if not head.startswith(SQLITE_MAGIC):
        found = "a client one" if head.startswith(MAGIC) else "no SQLite file"
        raise SnapshotError(
            f"{path}: expected a server snapshot (a SQLite storage file), "
            f"found {found}")
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


# ---------------------------------------------------------------------------
# inspection
# ---------------------------------------------------------------------------


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
    container:
        ``"binary"`` (SBSNAP client blob) or ``"sqlite"`` (server storage
        file).
    format_version:
        The client snapshot format version, or the SQLite schema version.
    prefix_bits:
        Width of the stored prefixes.
    backend:
        Client store backend; ``"raw"`` for server files, which hold raw
        prefix bytes and no store.
    lists:
        One :class:`ListSummary` per stored list — name, prefix count,
        and (server snapshots) full-hash count and mutation ``version``.
    payload_bytes:
        Size of the checksummed payload (client) or the file (server).
    """

    kind: str
    format_version: int
    prefix_bits: int
    backend: str
    lists: tuple[ListSummary, ...]
    payload_bytes: int
    container: str = "binary"

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
    or database: a client snapshot costs one payload pass (full
    magic/version/truncation/checksum checks included), a SQLite server
    file a handful of SQL aggregates.  Server summaries report the per-list
    mutation ``version`` and full-hash count alongside the prefix count, so
    ``snapshot load --summary`` can answer "what state is this file?"
    without a restore.
    """
    path = Path(path)
    if _read_head(path).startswith(SQLITE_MAGIC):
        try:
            meta, rows = sqlite_storage_summary(path)
        except StorageError as exc:
            raise SnapshotError(str(exc)) from exc
        return SnapshotInfo(
            kind="server",
            format_version=int(meta.get("schema_version", 0)),
            prefix_bits=int(meta["prefix_bits"]),
            backend="raw",
            lists=tuple(ListSummary(row["name"], row["prefixes"],
                                    row["full_hashes"], row["version"])
                        for row in rows),
            payload_bytes=path.stat().st_size,
            container="sqlite",
        )
    payload = _read_frame(_read_file(path), str(path))
    reader = _Reader(payload)
    backend = _registered_backend(reader.string(), path)
    bits = reader.u16()
    lists = []
    for _ in range(reader.u32()):
        name = reader.string()
        for _ in range(reader.u32()):
            reader.u32()
        for _ in range(reader.u32()):
            reader.u32()
        encoding, state = _read_store(reader, bits)
        count = len(state) if encoding == _STORE_PACKED else state[2]
        lists.append(ListSummary(name, count))
    reader.expect_end()
    return SnapshotInfo("client", FORMAT_VERSION, bits, backend,
                        tuple(lists), len(payload))
