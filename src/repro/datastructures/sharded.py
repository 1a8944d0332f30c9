"""A sharded prefix index: raw prefix stores, partitioned.

The server keeps one membership index per blacklist.  At reproduction scale a
single sorted array answers everything, but the ROADMAP's north star is a
provider shaped for millions of clients, where one monolithic index becomes
the bottleneck: every insert shifts one giant array and every batched probe
funnels through a single structure.  :class:`ShardedPrefixIndex` partitions
the key space by the *leading prefix byte* — SHA-256 prefixes are uniformly
distributed, so ``shard = first_byte % shard_count`` balances the shards for
free — and delegates each shard to an independent
:class:`~repro.datastructures.store.RawPrefixStore`.

Membership semantics are byte-for-byte those of an unsharded store (the
property suite pins this against every exact backend and shard count):
routing only decides *which* store answers, never *what* it answers.
Batched :meth:`contains_many` probes are grouped per shard so each store
sees one sorted sub-batch, keeping the sorted-array fast path effective
inside every shard.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.datastructures.store import PrefixStore, RawPrefixStore
from repro.exceptions import DataStructureError
from repro.hashing.prefix import Prefix

#: Default number of shards (one per distinct value of ``byte % 16``).
DEFAULT_SHARD_COUNT = 16


class ShardedPrefixIndex(PrefixStore):
    """``shard_count`` independent raw stores, routed by leading prefix byte.

    With ``shard_count=1`` this degenerates to a thin wrapper around a single
    store, which is what the equivalence tests compare against.
    """

    approximate = False

    def __init__(self, prefixes: Iterable[Prefix] = (), bits: int = 32, *,
                 shard_count: int = DEFAULT_SHARD_COUNT) -> None:
        super().__init__(bits)
        if shard_count < 1 or shard_count > 256:
            raise DataStructureError(
                f"shard_count must be in [1, 256], got {shard_count}"
            )
        self._shard_count = shard_count
        buckets: list[list[Prefix]] = [[] for _ in range(shard_count)]
        for prefix in prefixes:
            buckets[self._shard_of(self._check(prefix))].append(prefix)
        self._shards: list[RawPrefixStore] = [
            RawPrefixStore(bucket, bits) for bucket in buckets
        ]

    # -- routing ---------------------------------------------------------------

    def _shard_of(self, prefix: Prefix) -> int:
        return prefix.value[0] % self._shard_count

    @property
    def shard_count(self) -> int:
        """Number of partitions."""
        return self._shard_count

    @property
    def shards(self) -> tuple[RawPrefixStore, ...]:
        """The store of each shard (read-only view)."""
        return tuple(self._shards)

    def shard_sizes(self) -> tuple[int, ...]:
        """Entry count per shard (uniform hashing keeps these balanced)."""
        return tuple(len(shard) for shard in self._shards)

    # -- PrefixStore interface -------------------------------------------------

    def add(self, prefix: Prefix) -> None:
        self._shards[self._shard_of(self._check(prefix))].add(prefix)

    def discard(self, prefix: Prefix) -> None:
        self._shards[self._shard_of(self._check(prefix))].discard(prefix)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._shards[self._shard_of(self._check(prefix))]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def memory_bytes(self) -> int:
        return sum(shard.memory_bytes() for shard in self._shards)

    def __iter__(self) -> Iterator[Prefix]:
        for shard in self._shards:
            yield from shard

    # -- bulk operations -------------------------------------------------------

    def update(self, prefixes: Iterable[Prefix]) -> None:
        """Insert many prefixes, one bulk update per touched shard."""
        buckets: dict[int, list[Prefix]] = {}
        for prefix in prefixes:
            buckets.setdefault(self._shard_of(self._check(prefix)), []).append(prefix)
        for shard_id, bucket in buckets.items():
            self._shards[shard_id].update(bucket)

    def discard_many(self, prefixes: Iterable[Prefix]) -> None:
        buckets: dict[int, list[Prefix]] = {}
        for prefix in prefixes:
            buckets.setdefault(self._shard_of(self._check(prefix)), []).append(prefix)
        for shard_id, bucket in buckets.items():
            self._shards[shard_id].discard_many(bucket)

    def contains_many(self, prefixes: Iterable[Prefix]) -> int:
        """Batched membership, routed per shard and merged into one bitmask.

        Each shard receives only its own probes (with their original batch
        positions), so the sorted fast path stays effective within every
        shard, and the merged bitmask is identical to the unsharded answer.
        """
        by_shard: dict[int, tuple[list[Prefix], list[int]]] = {}
        for position, prefix in enumerate(prefixes):
            shard_id = self._shard_of(self._check(prefix))
            probes, positions = by_shard.setdefault(shard_id, ([], []))
            probes.append(prefix)
            positions.append(position)
        bitmask = 0
        for shard_id, (probes, positions) in by_shard.items():
            shard_mask = self._shards[shard_id].contains_many(probes)
            while shard_mask:
                low = shard_mask & -shard_mask
                bitmask |= 1 << positions[low.bit_length() - 1]
                shard_mask ^= low
        return bitmask
