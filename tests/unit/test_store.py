"""Unit tests for the raw packed sorted-array store and its batched lookups."""

from __future__ import annotations

from array import array

import pytest

from repro.datastructures.store import PrefixStore, RawPrefixStore
from repro.exceptions import DataStructureError
from repro.hashing import prefix as prefix_module
from repro.hashing.prefix import Prefix, PrefixRun


def prefixes_of(*values: int, bits: int = 32) -> list[Prefix]:
    return [Prefix.from_int(value, bits) for value in values]


class TestRawPrefixStore:
    def test_empty_store(self):
        store = RawPrefixStore()
        assert len(store) == 0
        assert store.memory_bytes() == 0
        assert Prefix.from_int(1, 32) not in store

    def test_add_and_membership(self):
        store = RawPrefixStore(prefixes_of(5, 3, 9))
        assert Prefix.from_int(3, 32) in store
        assert Prefix.from_int(4, 32) not in store

    def test_duplicates_not_stored_twice(self):
        store = RawPrefixStore(prefixes_of(1, 1, 1))
        assert len(store) == 1

    def test_values_kept_sorted(self):
        store = RawPrefixStore(prefixes_of(9, 1, 5))
        assert store.values() == [1, 5, 9]
        store.add(Prefix.from_int(4, 32))
        assert store.values() == [1, 4, 5, 9]

    def test_discard_present(self):
        store = RawPrefixStore(prefixes_of(1, 2))
        store.discard(Prefix.from_int(1, 32))
        assert Prefix.from_int(1, 32) not in store
        assert len(store) == 1

    def test_discard_absent_is_noop(self):
        store = RawPrefixStore(prefixes_of(1))
        store.discard(Prefix.from_int(7, 32))
        assert len(store) == 1

    def test_memory_is_width_times_count(self):
        store = RawPrefixStore(prefixes_of(1, 2, 3))
        assert store.memory_bytes() == 3 * 4
        store64 = RawPrefixStore(prefixes_of(1, 2, 3, bits=64), bits=64)
        assert store64.memory_bytes() == 3 * 8

    def test_iteration_yields_prefixes_in_order(self):
        store = RawPrefixStore(prefixes_of(2, 1))
        assert [prefix.to_int() for prefix in store] == [1, 2]

    def test_wrong_width_rejected(self):
        store = RawPrefixStore(bits=32)
        with pytest.raises(DataStructureError):
            store.add(Prefix.from_int(1, 64))
        with pytest.raises(DataStructureError):
            store.contains_many(prefixes_of(1, bits=64))

    def test_packed_layout_for_machine_widths(self):
        store = RawPrefixStore(prefixes_of(1, 2, 3))
        assert isinstance(store._values, array)
        store64 = RawPrefixStore(prefixes_of(1, 2, bits=64), bits=64)
        assert isinstance(store64._values, array)

    def test_wide_prefixes_fall_back_to_integers(self):
        store = RawPrefixStore(prefixes_of(2**100, 7, bits=128), bits=128)
        assert isinstance(store._values, list)
        assert Prefix.from_int(2**100, 128) in store
        assert store.contains_many(prefixes_of(7, 8, 2**100, bits=128)) == 0b101

    def test_invalid_store_width_rejected(self):
        with pytest.raises(DataStructureError):
            RawPrefixStore(bits=13)

    def test_bulk_update_and_discard(self):
        store = RawPrefixStore()
        store.update(prefixes_of(1, 2, 3, 4))
        store.discard_many(prefixes_of(2, 3))
        assert store.values() == [1, 4]

    def test_bulk_update_merges(self):
        store = RawPrefixStore(prefixes_of(1, 5))
        store.update(prefixes_of(3, 5, 2, 9, 8, 7, 6, 4, 10, 11))
        assert store.values() == list(range(1, 12))

    def test_small_bulk_update_inserts(self):
        store = RawPrefixStore(prefixes_of(1, 5))
        store.update(prefixes_of(3, 5))
        assert store.values() == [1, 3, 5]

    def test_not_approximate(self):
        assert RawPrefixStore.approximate is False


class TestContainsMany:
    def test_empty_cases(self):
        assert RawPrefixStore().contains_many(prefixes_of(1, 2, 3)) == 0
        assert RawPrefixStore(prefixes_of(1)).contains_many([]) == 0

    def test_bitmask_positions_follow_input_order(self):
        store = RawPrefixStore(prefixes_of(10, 20, 30))
        mask = store.contains_many(prefixes_of(30, 11, 10, 20, 21))
        assert mask == 0b01101

    def test_duplicate_probes_share_position_bits(self):
        store = RawPrefixStore(prefixes_of(10))
        mask = store.contains_many(prefixes_of(10, 10, 11, 10))
        assert mask == 0b1011

    def test_unsorted_probes_equal_per_prefix_contains(self):
        members = [7, 1, 99, 2**31, 2**32 - 1]
        store = RawPrefixStore(prefixes_of(*members))
        probes = prefixes_of(2**32 - 1, 0, 7, 98, 99, 1, 2**31, 3)
        mask = store.contains_many(probes)
        for position, probe in enumerate(probes):
            assert bool(mask >> position & 1) == (probe in store)

    def test_base_class_fallback_agrees(self):
        members = [4, 8, 15, 16, 23, 42]
        probes = prefixes_of(1, 4, 15, 40, 42, 23, 5)
        store = RawPrefixStore(prefixes_of(*members))
        assert store.contains_many(probes) == \
            PrefixStore.contains_many(store, probes)


class TestPrefixRunFastPath:
    """A same-width run is read as integers, with no Prefix per value."""

    @pytest.fixture()
    def no_prefixes(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a Prefix was built from a same-width run")

        monkeypatch.setattr(Prefix, "__post_init__", refuse)
        monkeypatch.setattr(prefix_module, "_valid_prefix", refuse)

    @pytest.mark.parametrize("bits", [8, 16, 24, 32, 64, 128])
    def test_build_update_and_probe_from_runs(self, bits, no_prefixes):
        width = bits // 8
        members = [3, 1, 250, 3, 77]
        run = PrefixRun.from_packed(
            b"".join(value.to_bytes(width, "big") for value in members), bits)
        store = RawPrefixStore(run, bits=bits)
        assert store.values() == [1, 3, 77, 250]
        store.update(PrefixRun.from_packed((90).to_bytes(width, "big") * 2, bits))
        assert store.values() == [1, 3, 77, 90, 250]
        probes = PrefixRun.from_packed(
            b"".join(value.to_bytes(width, "big") for value in (90, 2, 250, 1)),
            bits)
        assert store.contains_many(probes) == 0b1101

    def test_run_of_another_width_is_rejected(self):
        store = RawPrefixStore(prefixes_of(1), bits=32)
        with pytest.raises(DataStructureError):
            store.contains_many(PrefixRun(prefixes_of(1, bits=64)))
