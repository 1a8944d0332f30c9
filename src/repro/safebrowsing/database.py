"""Server-side blacklist storage.

Each blacklist lives in a :class:`ListDatabase`: the mapping from 32-bit
prefixes to the full 256-bit digests that share them, plus the chunk history
used by the update protocol.  A :class:`ServerDatabase` groups the lists a
provider serves.

Two behaviours that the paper documents — and that a faithful reproduction
must therefore support — go beyond a plain "insert malicious URL" API:

* **orphan prefixes** (Section 7.2): a prefix can be present in the prefix
  list without any corresponding full digest.  :meth:`ListDatabase.add_orphan_prefix`
  creates exactly that inconsistency, so the audit experiments can measure it.
* **tracking prefixes** (Section 6.3): the provider can insert the prefixes
  of *non-malicious* decompositions chosen by Algorithm 1.
  :meth:`ListDatabase.add_expression` accepts any canonical expression, so the
  tracking experiments push their shadow database through the same code path
  as genuine threat data.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from operator import attrgetter
from time import perf_counter

from repro.exceptions import DataStructureError, ListNotFoundError, ProtocolError
from repro.observability.metrics import (
    LATENCY_BOUNDS,
    MetricsRegistry,
    registry_or_null,
)

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the numpy-absent CI leg
    _np = None
from repro.hashing.digests import DEFAULT_PREFIX_BITS, FullHash
from repro.hashing.prefix import Prefix, PrefixRun, _valid_prefix
from repro.hashing.prefix_set import PrefixSet
from repro.safebrowsing.chunks import Chunk, ChunkKind
from repro.safebrowsing.lists import ListDescriptor
from repro.safebrowsing.storage import (
    CHUNK_KIND_CODES,
    OP_CHUNK,
    OP_ENTRY_ADD,
    OP_ENTRY_REMOVE,
    OP_ORPHAN_ADD,
    OP_ORPHAN_REMOVE,
    OP_PENDING_ADD,
    OP_PENDING_CLEAR,
    PENDING_ADDITION,
    PENDING_REMOVAL,
    MemoryServerStorage,
    ServerStorage,
    build_server_storage,
)


@dataclass
class ListDatabase:
    """One blacklist: prefixes, full digests, and chunk history.

    A prefix is in the list when it names a full-digest bucket or is an
    orphan; membership queries read those two mappings directly.  Every
    mutation bumps :attr:`version`, which the server core uses to invalidate
    its full-hash response cache.

    A bucket is a tuple of the prefix's full digests, sorted by digest and
    rebuilt whenever it changes (buckets hold one or two digests, and a
    1-tuple costs a fraction of a set).  Buckets and orphans are keyed by
    the raw prefix bytes: a list stores one width, so the value alone names
    the prefix, and a query hashes ``bytes`` instead of a :class:`Prefix`
    dataclass.  Only populated prefixes have a bucket: removing the last
    digest deletes the key.
    """

    descriptor: ListDescriptor
    prefix_bits: int = DEFAULT_PREFIX_BITS
    _full_hashes: dict[bytes, tuple[FullHash, ...]] = field(default_factory=dict)
    _orphans: set[bytes] = field(default_factory=set)
    _expressions: dict[str, FullHash] = field(default_factory=dict)
    _add_chunks: list[Chunk] = field(default_factory=list)
    _sub_chunks: list[Chunk] = field(default_factory=list)
    _pending_additions: list[Prefix] = field(default_factory=list)
    _pending_removals: list[Prefix] = field(default_factory=list)
    version: int = 0

    def __post_init__(self) -> None:
        # Durable-storage sink (attached by the owning ServerDatabase):
        # every logical mutation below is also journalled through it, so
        # persisting costs O(changed) rather than O(database).
        self._storage: ServerStorage | None = None
        # Sorted view of the populated bucket values for variable-width
        # (wide) queries, rebuilt lazily when the version moves: wide
        # matching is then a bisect + contiguous walk instead of a scan of
        # every bucket per query.
        self._wide_view: list[bytes] = []
        self._wide_view_version = -1
        self._wide_np = None

    # -- durable storage hooks ------------------------------------------------

    def attach_storage(self, storage: ServerStorage | None) -> None:
        """Adopt ``storage`` as the journal sink for future mutations."""
        self._storage = storage

    def _record(self, *op) -> None:
        if self._storage is not None:
            self._storage.record(self.descriptor.name, op)

    def _add_to_bucket(self, prefix: Prefix, full_hash: FullHash) -> bool:
        """Insert ``full_hash`` into its digest-sorted bucket.

        Returns False (and changes nothing) when the bucket already holds it.
        """
        bucket = self._full_hashes.get(prefix.value, ())
        if full_hash in bucket:
            return False
        self._full_hashes[prefix.value] = tuple(
            sorted((*bucket, full_hash), key=attrgetter("digest")))
        return True

    # -- content management ---------------------------------------------------

    def add_expression(self, expression: str) -> Prefix:
        """Blacklist a canonical expression (hash, truncate, record).

        Returns the prefix that clients will now find in their local
        database.  The full digest is recorded so full-hash requests for the
        prefix can be answered.
        """
        full_hash = FullHash.of(expression)
        prefix = full_hash.prefix(self.prefix_bits)
        if expression not in self._expressions:
            self._expressions[expression] = full_hash
            self._record(OP_ENTRY_ADD, full_hash.digest, expression)
        if self._add_to_bucket(prefix, full_hash):
            self._pending_additions.append(prefix)
            self.version += 1
            self._record(OP_PENDING_ADD, PENDING_ADDITION, prefix.value)
        if prefix.value in self._orphans:
            self._orphans.discard(prefix.value)
            self._record(OP_ORPHAN_REMOVE, prefix.value)
        return prefix

    def add_expressions(self, expressions: Iterable[str]) -> list[Prefix]:
        """Blacklist many canonical expressions."""
        return [self.add_expression(expression) for expression in expressions]

    def add_full_hash(self, full_hash: FullHash) -> Prefix:
        """Blacklist a full digest directly (no known cleartext expression)."""
        prefix = full_hash.prefix(self.prefix_bits)
        if self._add_to_bucket(prefix, full_hash):
            self._pending_additions.append(prefix)
            self.version += 1
            self._record(OP_ENTRY_ADD, full_hash.digest, None)
            self._record(OP_PENDING_ADD, PENDING_ADDITION, prefix.value)
        if prefix.value in self._orphans:
            self._orphans.discard(prefix.value)
            self._record(OP_ORPHAN_REMOVE, prefix.value)
        return prefix

    def add_orphan_prefix(self, prefix: Prefix) -> None:
        """Insert a prefix with *no* corresponding full digest.

        This reproduces the inconsistencies the paper measured in the Yandex
        (and, marginally, Google) lists: the prefix triggers full-hash
        requests but the server cannot confirm any URL for it.
        """
        if prefix.bits != self.prefix_bits:
            raise ProtocolError(
                f"list {self.descriptor.name} stores {self.prefix_bits}-bit prefixes"
            )
        value = prefix.value
        if value not in self._full_hashes and value not in self._orphans:
            self._orphans.add(value)
            self._pending_additions.append(prefix)
            self.version += 1
            self._record(OP_ORPHAN_ADD, value)
            self._record(OP_PENDING_ADD, PENDING_ADDITION, value)

    def remove_expression(self, expression: str) -> None:
        """Remove a previously blacklisted expression (creates a sub chunk)."""
        full_hash = self._expressions.pop(expression, None)
        if full_hash is None:
            full_hash = FullHash.of(expression)
        prefix = full_hash.prefix(self.prefix_bits)
        bucket = self._full_hashes.get(prefix.value, ())
        if full_hash in bucket:
            remaining = tuple(entry for entry in bucket if entry != full_hash)
            self.version += 1
            self._record(OP_ENTRY_REMOVE, full_hash.digest)
            if remaining:
                self._full_hashes[prefix.value] = remaining
            else:
                del self._full_hashes[prefix.value]
                self._pending_removals.append(prefix)
                self._record(OP_PENDING_ADD, PENDING_REMOVAL, prefix.value)

    def remove_orphan_prefix(self, prefix: Prefix) -> None:
        """Remove an orphan prefix."""
        value = prefix.value
        if value in self._orphans:
            self._orphans.remove(value)
            self._pending_removals.append(prefix)
            self.version += 1
            self._record(OP_ORPHAN_REMOVE, value)
            self._record(OP_PENDING_ADD, PENDING_REMOVAL, value)

    # -- chunk management -----------------------------------------------------

    def commit_pending(self) -> tuple[Chunk | None, Chunk | None]:
        """Turn pending additions/removals into new add/sub chunks.

        Returns the (add_chunk, sub_chunk) created, either of which may be
        ``None`` when there was nothing pending of that kind.
        """
        add_chunk: Chunk | None = None
        sub_chunk: Chunk | None = None
        if self._pending_additions:
            add_chunk = Chunk(
                number=len(self._add_chunks) + 1,
                kind=ChunkKind.ADD,
                prefixes=PrefixRun(dict.fromkeys(self._pending_additions),
                                   self.prefix_bits),
            )
            self._add_chunks.append(add_chunk)
            self._pending_additions.clear()
            self._record_chunk(add_chunk, PENDING_ADDITION)
        if self._pending_removals:
            sub_chunk = Chunk(
                number=len(self._sub_chunks) + 1,
                kind=ChunkKind.SUB,
                prefixes=PrefixRun(dict.fromkeys(self._pending_removals),
                                   self.prefix_bits),
                referenced_add_chunk=len(self._add_chunks) or None,
            )
            self._sub_chunks.append(sub_chunk)
            self._pending_removals.clear()
            self._record_chunk(sub_chunk, PENDING_REMOVAL)
        return add_chunk, sub_chunk

    def _record_chunk(self, chunk: Chunk, pending_kind: int) -> None:
        if self._storage is None:
            return
        self._record(OP_CHUNK, CHUNK_KIND_CODES[chunk.kind], chunk.number,
                     chunk.referenced_add_chunk or 0,
                     chunk.prefixes.packed)
        self._record(OP_PENDING_CLEAR, pending_kind)

    @property
    def add_chunks(self) -> tuple[Chunk, ...]:
        """All add chunks committed so far."""
        return tuple(self._add_chunks)

    @property
    def sub_chunks(self) -> tuple[Chunk, ...]:
        """All sub chunks committed so far."""
        return tuple(self._sub_chunks)

    def chunks_after(self, held_add: Iterable[int], held_sub: Iterable[int]) -> tuple[list[Chunk], list[Chunk]]:
        """Chunks the client is missing given the chunk numbers it holds."""
        held_add_set = set(held_add)
        held_sub_set = set(held_sub)
        missing_add = [chunk for chunk in self._add_chunks if chunk.number not in held_add_set]
        missing_sub = [chunk for chunk in self._sub_chunks if chunk.number not in held_sub_set]
        return missing_add, missing_sub

    # -- queries --------------------------------------------------------------

    def full_hashes_for(self, prefix: Prefix) -> tuple[FullHash, ...]:
        """Full digests stored under ``prefix``, digest-sorted (empty for orphans)."""
        return self._full_hashes.get(prefix.value, ())

    def full_hashes_matching(self, prefix: Prefix) -> tuple[FullHash, ...]:
        """Full digests whose own prefix is compatible with ``prefix``.

        The variable-width counterpart of :meth:`full_hashes_for` (the
        v4-style lookup the prefix-widening defense relies on):

        * at the stored width, the exact bucket;
        * a *shorter* (wider) query returns the union of every bucket whose
          stored prefix starts with the queried bytes — a superset the
          client filters locally;
        * a *longer* query filters the owning bucket by the extra digest
          bytes.

        Prefixes are byte-aligned (multiples of 8 bits), so compatibility
        is a plain byte-prefix comparison.  One-query call of
        :meth:`full_hashes_matching_many`, which the server core calls for
        the whole request batch at once.
        """
        return self.full_hashes_matching_many((prefix,))[0]

    def full_hashes_matching_many(
            self, prefixes: Sequence[Prefix]) -> list[tuple[FullHash, ...]]:
        """Batched :meth:`full_hashes_matching`: one tuple per query, in order.

        Stored-width and longer queries stay bucket lookups by raw bytes;
        the *shorter* (widened privacy) queries of the batch are resolved
        together — each one is a contiguous range of the sorted wide view,
        and with numpy present both range endpoints of every query are
        found by a single vectorized ``searchsorted`` pass instead of a
        per-prefix scan.  A repeated query is answered each time it occurs;
        the server core deduplicates its batch before calling.
        """
        buckets = self._full_hashes
        bits = self.prefix_bits
        width = bits // 8
        results: list[tuple[FullHash, ...]] = []
        wide: list[Prefix] = []
        wide_at: list[int] = []
        for prefix in prefixes:
            if prefix.bits == bits:
                results.append(buckets.get(prefix.value, ()))
            elif prefix.bits > bits:
                value = prefix.value
                results.append(tuple(
                    full_hash for full_hash in buckets.get(value[:width], ())
                    if full_hash.digest.startswith(value)))
            else:
                wide_at.append(len(results))
                wide.append(prefix)
                results.append(())  # placeholder, filled below
        if wide:
            # Buckets of a sorted view range are disjoint and each digest
            # starts with its bucket's prefix, so concatenating them in view
            # order is already digest-sorted.
            view = self._populated_values()
            for index, (low, high) in zip(wide_at, self._wide_ranges(wide)):
                results[index] = tuple(
                    full_hash for value in view[low:high]
                    for full_hash in buckets[value])
        return results

    def _wide_ranges(self, prefixes: Sequence[Prefix]) -> list[tuple[int, int]]:
        """Half-open ``[low, high)`` wide-view ranges covered per query.

        A shorter query value ``q`` matches exactly the stored values in
        ``[q, next(q))`` where ``next(q)`` increments ``q`` as a big-endian
        integer (``None`` past the end when ``q`` is all ``0xFF``).  With
        numpy the two bisections per query collapse into one vectorized
        ``searchsorted`` call over the whole batch.
        """
        bounds: list[tuple[bytes, bytes | None]] = []
        for prefix in prefixes:
            value = prefix.value
            as_int = int.from_bytes(value, "big") + 1
            upper = (None if as_int >= 1 << (8 * len(value))
                     else as_int.to_bytes(len(value), "big"))
            bounds.append((value, upper))
        view = self._populated_values()
        array = self._wide_array()
        if array is None:
            return [(bisect_left(view, low),
                     len(view) if high is None else bisect_left(view, high))
                    for low, high in bounds]
        width = self.prefix_bits // 8
        # One needle per endpoint; an all-0xFF query has no upper needle and
        # keeps len(view).  Shorter needles compare NUL-padded in the S
        # dtype, which matches bytes ordering for these range endpoints.
        needles = [low for low, _ in bounds]
        needles += [high for _, high in bounds if high is not None]
        positions = _np.searchsorted(
            array, _np.array(needles, dtype=f"S{width}")).tolist()
        lows = positions[:len(bounds)]
        highs: list[int] = []
        upper_index = len(bounds)
        for _, high in bounds:
            if high is None:
                highs.append(len(view))
            else:
                highs.append(positions[upper_index])
                upper_index += 1
        return list(zip(lows, highs))

    def _populated_values(self) -> list[bytes]:
        """Sorted byte values of the populated buckets (wide-query view)."""
        if self._wide_view_version != self.version:
            self._wide_view = sorted(self._full_hashes)
            self._wide_view_version = self.version
            self._wide_np = None  # companion array rebuilt on demand
        return self._wide_view

    def _wide_array(self):
        """numpy companion of the wide view (``None`` without numpy)."""
        view = self._populated_values()
        if _np is None or not view:
            return None
        if self._wide_np is None:
            self._wide_np = _np.frombuffer(
                b"".join(view), dtype=f"S{self.prefix_bits // 8}")
        return self._wide_np

    def prefixes(self) -> PrefixSet:
        """Every prefix in the list (including orphans)."""
        bits = self.prefix_bits
        return PrefixSet((_valid_prefix(value, bits)
                          for value in (*self._full_hashes, *self._orphans)),
                         bits=bits)

    def orphan_prefixes(self) -> PrefixSet:
        """Prefixes with no corresponding full digest."""
        bits = self.prefix_bits
        return PrefixSet((_valid_prefix(value, bits)
                          for value in self._orphans), bits=bits)

    def expressions(self) -> tuple[str, ...]:
        """The cleartext expressions known to the provider (ground truth)."""
        return tuple(sorted(self._expressions))

    def contains_prefix(self, prefix: Prefix) -> bool:
        """Whether ``prefix`` is in the list (populated or orphan).

        Raises :class:`~repro.exceptions.DataStructureError` for a prefix
        whose width is not the list's.
        """
        if prefix.bits != self.prefix_bits:
            raise DataStructureError(
                f"list {self.descriptor.name} holds {self.prefix_bits}-bit "
                f"prefixes, got a {prefix.bits}-bit one")
        value = prefix.value
        return value in self._full_hashes or value in self._orphans

    def contains_many(self, prefixes: Sequence[Prefix]) -> int:
        """Batched membership bitmask.

        Bit ``i`` is set iff ``prefixes[i]`` is in the list, with the width
        check of :meth:`contains_prefix`.
        """
        bitmask = 0
        for position, prefix in enumerate(prefixes):
            if self.contains_prefix(prefix):
                bitmask |= 1 << position
        return bitmask

    def prefix_count(self) -> int:
        """Number of prefixes in the list (the paper's Table 1/3 metric)."""
        return len(self._full_hashes) + len(self._orphans)

    def full_hash_count(self) -> int:
        """Number of full digests in the list."""
        return sum(len(bucket) for bucket in self._full_hashes.values())

    def __len__(self) -> int:
        return self.prefix_count()


class ServerDatabase:
    """All the lists one provider serves.

    ``storage`` picks the durable layer (a kind from
    :data:`~repro.safebrowsing.storage.STORAGE_KINDS`, or a built
    :class:`~repro.safebrowsing.storage.ServerStorage`); the default
    ``"memory"`` keeps the historical dicts-only behaviour.  Mutations are
    journalled through the storage as they happen and become durable at
    :meth:`commit`, which also advances :attr:`committed_version` — the
    version readers of the durable layer are guaranteed to see.
    """

    def __init__(self, descriptors: Iterable[ListDescriptor],
                 prefix_bits: int = DEFAULT_PREFIX_BITS, *,
                 storage: "str | ServerStorage" = "memory",
                 storage_path=None,
                 metrics: "MetricsRegistry | None" = None) -> None:
        self._lists: dict[str, ListDatabase] = {
            descriptor.name: ListDatabase(descriptor, prefix_bits)
            for descriptor in descriptors}
        self.prefix_bits = prefix_bits
        self.storage = build_server_storage(storage, storage_path)
        self.storage.bind(self)
        for database in self._lists.values():
            database.attach_storage(self.storage)
        self._committed_version = self.version
        self.set_metrics(metrics)

    def set_metrics(self, metrics: "MetricsRegistry | None") -> None:
        """(Re)bind the storage-commit instruments to ``metrics``.

        Instruments live at :meth:`commit` granularity only — the per-record
        journal path stays untouched, so hot ingestion loops pay nothing.
        """
        metrics = registry_or_null(metrics)
        self._metrics_enabled = metrics.enabled
        self._m_commits = metrics.counter(
            "storage_commits_total", "Durable commits of the served database")
        self._m_ops_recorded = metrics.counter(
            "storage_journal_ops_recorded_total",
            "Journal ops pending at commit time (pre-coalescing)")
        self._m_ops_flushed = metrics.counter(
            "storage_journal_ops_flushed_total",
            "Journal ops applied by commits (post-coalescing)")
        self._m_commit_wall = metrics.histogram(
            "storage_commit_wall_seconds",
            "Wall-clock time of one durable commit", bounds=LATENCY_BOUNDS)

    def __getitem__(self, list_name: str) -> ListDatabase:
        try:
            return self._lists[list_name]
        except KeyError:
            raise ListNotFoundError(f"server does not serve list {list_name!r}") from None

    def __contains__(self, list_name: str) -> bool:
        return list_name in self._lists

    def __iter__(self) -> Iterator[ListDatabase]:
        return iter(self._lists.values())

    def __len__(self) -> int:
        return len(self._lists)

    @property
    def list_names(self) -> tuple[str, ...]:
        """Names of the lists served."""
        return tuple(self._lists)

    def commit_all(self) -> None:
        """Commit pending changes of every list into chunks."""
        for database in self._lists.values():
            database.commit_pending()

    def commit(self) -> int:
        """Commit pending chunks *and* make the state durable.

        One atomic step of the ingestion pipeline: pending mutations become
        chunks (:meth:`commit_all`), the storage journal is flushed in a
        single transaction, and :attr:`committed_version` advances to the
        current :attr:`version`.  Readers attached to a SQLite storage file
        see either the state before this call or the state after it — never
        a torn intermediate.  Returns the number of journal ops flushed.
        """
        if not self._metrics_enabled:
            self.commit_all()
            flushed = self.storage.flush()
            self._committed_version = self.version
            return flushed
        start = perf_counter()
        self.commit_all()
        pending = self.storage.pending_ops()
        flushed = self.storage.flush()
        self._committed_version = self.version
        self._m_commits.inc()
        self._m_ops_recorded.inc(pending)
        self._m_ops_flushed.inc(flushed)
        self._m_commit_wall.observe(perf_counter() - start)
        return flushed

    @property
    def committed_version(self) -> int:
        """The :attr:`version` as of the last :meth:`commit`.

        The versioned-read guarantee of the durable layer: a reader loading
        the storage observes at least this version, and never a version
        between commits.
        """
        return self._committed_version

    def _adopt_lists(self, lists: dict[str, ListDatabase]) -> None:
        """Replace the (empty) freshly-built lists with materialized ones.

        The restore half of the storage layer: the SQLite loader constructs
        the shell database first, then swaps in the lists it rebuilt.  The adopted lists take over this
        database's storage as their journal sink.
        """
        self._lists = lists
        for database in self._lists.values():
            database.attach_storage(self.storage)
        self._committed_version = self.version

    @property
    def version(self) -> int:
        """Monotonic content version, bumped by any list mutation.

        The server core's full-hash response cache stores the version it was
        computed against and treats any bump as an invalidation.
        """
        return sum(database.version for database in self._lists.values())

    def lists_containing(self, prefix: Prefix) -> list[str]:
        """Names of the lists whose prefix set contains ``prefix``."""
        return [name for name, database in self._lists.items()
                if database.contains_prefix(prefix)]

    def contains_many(self, prefixes: Sequence[Prefix]) -> int:
        """Bitmask of prefixes present in *any* served list."""
        bitmask = 0
        for database in self._lists.values():
            bitmask |= database.contains_many(prefixes)
        return bitmask
