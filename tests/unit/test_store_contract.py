"""Contract tests for every backend in the one store registry.

``STORE_FACTORIES`` maps each backend name straight to its class, and every
consumer — the client, snapshot restore, the property suites — builds
stores through it as ``cls(prefixes, bits)``.  This module pins, backend by
backend, the contract those consumers rely on:

* construction from a packed :class:`PrefixRun` (what snapshot restore hands
  every backend) equals construction from ``Prefix`` objects, in any order
  and with repeats, at widths with and without a native integer dtype;
* the batched ``contains_many`` bitmask agrees bit for bit with per-prefix
  membership;
* exact backends apply adds and deletes like a Python ``set`` — also after
  a run-built (restored) baseline — and iterate in ascending order;
* the Bloom backend never forgets a member and refuses deletion;
* a prefix or a run of the wrong width is a :class:`DataStructureError`.

The sweep covers whatever is registered, so the numpy-absent leg checks the
three paper structures and the numpy leg adds ``numpy``.
"""

from __future__ import annotations

import pytest

from repro.datastructures import STORE_FACTORIES
from repro.datastructures.store import PrefixStore
from repro.exceptions import DataStructureError
from repro.hashing.prefix import Prefix, PrefixRun

BACKENDS = sorted(STORE_FACTORIES)
EXACT_BACKENDS = [name for name in BACKENDS
                  if not STORE_FACTORIES[name].approximate]
APPROXIMATE_BACKENDS = [name for name in BACKENDS
                        if STORE_FACTORIES[name].approximate]
#: 1-, 4- and 8-byte widths have a native integer dtype in the numpy store;
#: 3 and 16 bytes take its bytes-dtype path, and 16 bytes the raw store's
#: Python-integer fallback.
WIDTHS = (8, 24, 32, 64, 128)

#: Unsorted, with repeats; fits in one byte so every width can hold it.
BASE_VALUES = (0x9A, 0x03, 0x7F, 0x01, 0x55, 0x55, 0xFF, 0x03)
ABSENT_VALUES = (0x00, 0x02, 0x56, 0x80, 0xFE)


def _scaled(values, bits: int) -> list[int]:
    """Spread byte values over the whole width: the value in the top byte
    and, beyond 8 bits, repeated in the bottom byte."""
    if bits == 8:
        return list(values)
    return [value << (bits - 8) | value for value in values]


def _prefixes(values, bits: int) -> list[Prefix]:
    return [Prefix.from_int(value, bits) for value in values]


def _run(values, bits: int) -> PrefixRun:
    return PrefixRun.from_packed(
        b"".join(value.to_bytes(bits // 8, "big") for value in values), bits)


def _mask_of(store: PrefixStore, probes: list[Prefix]) -> int:
    return sum(1 << position for position, probe in enumerate(probes)
               if probe in store)


class TestRegistry:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_name_builds_its_class_with_the_registry_signature(self, backend):
        store = STORE_FACTORIES[backend]((), 32)
        assert type(store) is STORE_FACTORIES[backend]
        assert isinstance(store, PrefixStore)
        assert store.bits == 32
        assert len(store) == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unsupported_width_rejected(self, backend):
        with pytest.raises(DataStructureError):
            STORE_FACTORIES[backend]((), 13)


class TestRunConstruction:
    @pytest.mark.parametrize("bits", WIDTHS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_matches_prefix_construction(self, backend, bits):
        values = _scaled(BASE_VALUES, bits)
        from_run = STORE_FACTORIES[backend](_run(values, bits), bits)
        from_prefixes = STORE_FACTORIES[backend](_prefixes(values, bits), bits)
        members = _prefixes(sorted(set(values)), bits)
        probes = members + _prefixes(_scaled(ABSENT_VALUES, bits), bits)
        assert from_run.contains_many(probes) == \
            from_prefixes.contains_many(probes)
        assert all(prefix in from_run for prefix in members)
        if not from_run.approximate:
            assert from_run.contains_many(probes) == (1 << len(members)) - 1
            assert len(from_run) == len(members)
            assert list(from_run) == members

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_run_of_another_width_builds_an_empty_store(self, backend):
        store = STORE_FACTORIES[backend](PrefixRun((), 64), 32)
        assert len(store) == 0
        assert store.contains_many(_prefixes(BASE_VALUES, 32)) == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_wrong_width_run_rejected(self, backend):
        with pytest.raises(DataStructureError):
            STORE_FACTORIES[backend](_run([1, 2], 64), 32)


class TestBatchedMembership:
    @pytest.mark.parametrize("bits", WIDTHS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_contains_many_matches_single_lookups(self, backend, bits):
        values = _scaled(BASE_VALUES, bits)
        store = STORE_FACTORIES[backend](_prefixes(values, bits), bits)
        # Unsorted probes, members and non-members interleaved, one repeat.
        probes = _prefixes(_scaled((0xFF, 0x00, 0x03, 0x80, 0x9A, 0x03, 0x56),
                                   bits), bits)
        assert store.contains_many(probes) == _mask_of(store, probes)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bitmask_positions_follow_input_order(self, backend):
        store = STORE_FACTORIES[backend](_prefixes([10, 20, 30], 32), 32)
        mask = store.contains_many(_prefixes([30, 10, 10, 20], 32))
        assert mask & 0b1111 == 0b1111
        if not store.approximate:
            assert store.contains_many(_prefixes([30, 11, 10, 21], 32)) == 0b0101

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_batch_is_zero(self, backend):
        store = STORE_FACTORIES[backend](_prefixes([1, 2], 32), 32)
        assert store.contains_many([]) == 0


class TestWidthChecks:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_wrong_width_prefix_rejected(self, backend):
        store = STORE_FACTORIES[backend](_prefixes([1], 32), 32)
        wide = Prefix.from_int(1, 64)
        with pytest.raises(DataStructureError):
            store.add(wide)
        with pytest.raises(DataStructureError):
            wide in store  # noqa: B015 - the membership query must raise
        with pytest.raises(DataStructureError):
            store.contains_many([wide])


class TestExactMutations:
    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_readding_a_discarded_prefix_resurrects_it(self, backend):
        store = STORE_FACTORIES[backend](_prefixes([1, 2, 3], 32), 32)
        two = Prefix.from_int(2, 32)
        store.discard(two)
        assert two not in store
        store.add(two)
        assert two in store
        assert len(store) == 3

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_discard_of_absent_prefix_is_noop(self, backend):
        store = STORE_FACTORIES[backend](_prefixes([1, 2], 32), 32)
        store.discard(Prefix.from_int(99, 32))
        store.discard_many(_prefixes([98, 97], 32))
        assert len(store) == 2
        assert list(store) == _prefixes([1, 2], 32)

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_duplicate_add_is_idempotent(self, backend):
        store = STORE_FACTORIES[backend](_prefixes([1], 32), 32)
        store.add(Prefix.from_int(5, 32))
        store.add(Prefix.from_int(5, 32))
        store.add(Prefix.from_int(1, 32))
        store.update(_prefixes([5, 1, 5], 32))
        assert len(store) == 2

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_iteration_is_ascending_after_mutations(self, backend):
        store = STORE_FACTORIES[backend](_prefixes([10, 30, 50], 32), 32)
        store.add(Prefix.from_int(40, 32))
        store.add(Prefix.from_int(60, 32))
        store.add(Prefix.from_int(5, 32))
        store.discard(Prefix.from_int(30, 32))
        assert list(store) == _prefixes([5, 10, 40, 50, 60], 32)

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_bulk_update_and_discard_many_match_a_set(self, backend):
        store = STORE_FACTORIES[backend]((), 32)
        reference: set[int] = set()
        for chunk in ([7, 3, 9, 3], list(range(20, 40)), [1, 9, 25]):
            store.update(_prefixes(chunk, 32))
            reference.update(chunk)
        for chunk in ([3, 4], list(range(22, 38, 2)), [100]):
            store.discard_many(_prefixes(chunk, 32))
            reference.difference_update(chunk)
        assert list(store) == _prefixes(sorted(reference), 32)
        probes = _prefixes(range(45), 32)
        assert store.contains_many(probes) == sum(
            1 << value for value in range(45) if value in reference)

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_mutations_after_run_construction(self, backend):
        """The warm-start path: a store restored from a packed run keeps
        applying add and sub chunks like any other store."""
        store = STORE_FACTORIES[backend](_run([50, 10, 30, 10], 32), 32)
        store.update(_prefixes([25, 35], 32))
        store.discard_many(_prefixes([30, 99], 32))
        store.add(Prefix.from_int(30, 32))
        store.discard(Prefix.from_int(10, 32))
        assert list(store) == _prefixes([25, 30, 35, 50], 32)
        assert store.contains_many(_prefixes([10, 25, 30, 35, 50, 51], 32)) \
            == 0b011110


class TestApproximateBackends:
    @pytest.mark.parametrize("backend", APPROXIMATE_BACKENDS)
    def test_members_are_never_forgotten(self, backend):
        store = STORE_FACTORIES[backend](_run([50, 10, 30], 32), 32)
        store.update(_prefixes([25, 35], 32))
        store.add(Prefix.from_int(1, 32))
        members = _prefixes([1, 10, 25, 30, 35, 50], 32)
        assert store.contains_many(members) == (1 << len(members)) - 1

    @pytest.mark.parametrize("backend", APPROXIMATE_BACKENDS)
    def test_deletion_refused(self, backend):
        store = STORE_FACTORIES[backend](_prefixes([1], 32), 32)
        with pytest.raises(DataStructureError):
            store.discard(Prefix.from_int(1, 32))
        assert Prefix.from_int(1, 32) in store
