"""Property tests: server-side list membership under any mutation sequence.

A :class:`ListDatabase` answers membership from its full-hash buckets and
its orphan prefixes.  Whatever sequence of ``add_expression``,
``add_full_hash``, ``add_orphan_prefix``, ``remove_expression`` and
``remove_orphan_prefix`` it has seen, after every step:

* ``contains_prefix(p)`` is ``p in prefixes()`` for members and for random
  probes, and ``contains_many`` sets exactly the bits of the per-prefix
  answers;
* ``prefix_count()`` is ``len(prefixes())``;
* ``prefixes()`` and ``orphan_prefixes()`` match a plain-set model of the
  documented semantics (an orphan is dropped when a digest lands on it and
  is never created over a populated prefix; removing the last digest of a
  prefix leaves its orphan status alone).

Operations draw from a small pool of prefixes so that digests, expressions
and orphans collide on the same prefix often.

A second suite pins the server's answers against the client side: over the
same prefix set, single and batched, after adds and removals, a
``ListDatabase`` answers byte-for-byte like every exact registered client
store backend.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.datastructures import STORE_FACTORIES
from repro.hashing.digests import FullHash
from repro.hashing.prefix import Prefix
from repro.safebrowsing.database import ListDatabase
from repro.safebrowsing.lists import ListProvider, get_list

EXPRESSIONS = tuple(f"host{index}.example/{index}" for index in range(6))

#: The expressions' own prefixes plus a few fixed values: every operation
#: below targets one of these, so operations interact on shared prefixes.
POOL = (*(FullHash.of(expression).prefix(32) for expression in EXPRESSIONS),
        *(Prefix.from_int(value, 32)
          for value in (0, 1, 0xDEADBEEF, 2**32 - 1)))

_pool_index = st.integers(min_value=0, max_value=len(POOL) - 1)
_tail = st.integers(min_value=0, max_value=2)
_operation = st.one_of(
    st.tuples(st.just("add_expression"), st.sampled_from(EXPRESSIONS)),
    st.tuples(st.just("add_full_hash"), _pool_index, _tail),
    st.tuples(st.just("add_orphan_prefix"), _pool_index),
    st.tuples(st.just("remove_expression"), st.sampled_from(EXPRESSIONS)),
    st.tuples(st.just("remove_orphan_prefix"), _pool_index),
)
_values32 = st.integers(min_value=0, max_value=2**32 - 1)

#: Client stores that answer membership exactly (the Bloom backend may
#: report false positives, so it has no byte-for-byte answer to compare).
EXACT_BACKENDS = [name for name in sorted(STORE_FACTORIES)
                  if not STORE_FACTORIES[name].approximate]


def _prefixes(values: list[int]) -> list[Prefix]:
    return [Prefix.from_int(value, 32) for value in values]


def _empty_list_database() -> ListDatabase:
    return ListDatabase(get_list("goog-malware-shavar", ListProvider.GOOGLE))


def _colliding_hash(prefix: Prefix, tail: int) -> FullHash:
    """A digest (not of any expression) that truncates to ``prefix``."""
    return FullHash(prefix.value + bytes([0xA0 + tail]) * 28)


class _Model:
    """Plain-set reference: populated digests per prefix, plus orphans."""

    def __init__(self) -> None:
        self.buckets: dict[Prefix, set[FullHash]] = {}
        self.orphans: set[Prefix] = set()

    def add_hash(self, full_hash: FullHash) -> None:
        prefix = full_hash.prefix(32)
        self.buckets.setdefault(prefix, set()).add(full_hash)
        self.orphans.discard(prefix)

    def remove_hash(self, full_hash: FullHash) -> None:
        prefix = full_hash.prefix(32)
        bucket = self.buckets.get(prefix, set())
        bucket.discard(full_hash)
        if not bucket:
            self.buckets.pop(prefix, None)

    def add_orphan(self, prefix: Prefix) -> None:
        if prefix not in self.buckets:
            self.orphans.add(prefix)

    def members(self) -> set[Prefix]:
        return set(self.buckets) | self.orphans


def _apply(database: ListDatabase, model: _Model, operation: tuple) -> None:
    name, *args = operation
    if name == "add_expression":
        database.add_expression(args[0])
        model.add_hash(FullHash.of(args[0]))
    elif name == "add_full_hash":
        full_hash = _colliding_hash(POOL[args[0]], args[1])
        database.add_full_hash(full_hash)
        model.add_hash(full_hash)
    elif name == "add_orphan_prefix":
        database.add_orphan_prefix(POOL[args[0]])
        model.add_orphan(POOL[args[0]])
    elif name == "remove_expression":
        database.remove_expression(args[0])
        model.remove_hash(FullHash.of(args[0]))
    else:
        database.remove_orphan_prefix(POOL[args[0]])
        model.orphans.discard(POOL[args[0]])


class TestListDatabaseMembership:
    @given(st.lists(_operation, max_size=40),
           st.lists(_values32, max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_membership_tracks_every_mutation(self, operations, probe_values):
        database = _empty_list_database()
        model = _Model()
        random_probes = [Prefix.from_int(value, 32) for value in probe_values]
        for operation in operations:
            _apply(database, model, operation)
            members = database.prefixes()
            assert set(members) == model.members()
            assert set(database.orphan_prefixes()) == model.orphans
            assert database.prefix_count() == len(members)

            batch = [*members, *POOL, *random_probes]
            expected_mask = 0
            for position, prefix in enumerate(batch):
                assert database.contains_prefix(prefix) == (prefix in members)
                if prefix in members:
                    expected_mask |= 1 << position
            assert database.contains_many(batch) == expected_mask


class TestListDatabaseAgreesWithExactStores:
    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    @given(members=st.lists(_values32, max_size=200),
           probes=st.lists(_values32, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_membership_matches_client_store(self, backend, members, probes):
        member_prefixes = _prefixes(members)
        database = _empty_list_database()
        for prefix in member_prefixes:
            database.add_orphan_prefix(prefix)
        store = STORE_FACTORIES[backend](member_prefixes, 32)
        assert database.prefix_count() == len(store)
        # Probe both known members and arbitrary values, single and batched.
        probe_prefixes = _prefixes(probes + members[:10])
        for prefix in probe_prefixes:
            assert database.contains_prefix(prefix) == (prefix in store)
        assert (database.contains_many(probe_prefixes)
                == store.contains_many(probe_prefixes))

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    @given(expressions=st.lists(st.sampled_from(EXPRESSIONS), max_size=6),
           members=st.lists(_values32, max_size=120),
           removals=st.lists(_values32, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_mutations_match_client_store(self, backend, expressions,
                                          members, removals):
        database = _empty_list_database()
        store = STORE_FACTORIES[backend]([], 32)
        for expression in expressions:
            store.update([database.add_expression(expression)])
        member_prefixes = _prefixes(members)
        for prefix in member_prefixes:
            database.add_orphan_prefix(prefix)
        store.update(member_prefixes)
        # Orphan removals only: the expressions' prefixes stay populated.
        populated = {FullHash.of(expression).prefix(32)
                     for expression in expressions}
        removal_prefixes = [prefix
                            for prefix in _prefixes(removals + members[:10])
                            if prefix not in populated]
        for prefix in removal_prefixes:
            database.remove_orphan_prefix(prefix)
        store.discard_many(removal_prefixes)
        assert database.prefix_count() == len(store)
        probes = [*member_prefixes, *removal_prefixes, *POOL]
        assert database.contains_many(probes) == store.contains_many(probes)
