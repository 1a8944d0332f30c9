"""Property tests pinning the numpy backend to the raw sorted-array reference.

The generic store sweep in ``test_prop_stores.py`` already covers the
registry-constructed path for every registered backend; this module pins the
paths only the vectorized backend has — construction from a packed
:class:`PrefixRun` (the snapshot restore path, sorted or not), the batched
``contains_many`` bitmask at several widths, and the sorted-merge bulk
``update``/``discard_many`` over chunk sequences.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("numpy")

from repro.datastructures.store import RawPrefixStore
from repro.datastructures.vectorized import NumpyPrefixStore
from repro.hashing.prefix import Prefix, PrefixRun

WIDTHS = (8, 24, 32, 64)


def _values(bits: int):
    return st.integers(min_value=0, max_value=(1 << bits) - 1)


@st.composite
def packed_run_and_operations(draw, bits: int):
    """A packed baseline run plus overlay adds/removes and a probe batch."""
    baseline = sorted(set(draw(st.lists(_values(bits), max_size=40))))
    added = draw(st.lists(_values(bits), max_size=10))
    removed = draw(st.lists(_values(bits), max_size=10))
    probes = draw(st.lists(_values(bits), min_size=1, max_size=30))
    return baseline, added, removed, probes


class TestPrefixRunConstruction:
    @pytest.mark.parametrize("bits", WIDTHS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_run_built_store_matches_raw(self, bits, data):
        """A packed run in any order, with repeats, builds the same store
        the raw array builds from the deduplicated set."""
        values = data.draw(st.lists(_values(bits), max_size=40))
        probes = data.draw(st.lists(_values(bits), min_size=1, max_size=30))
        if data.draw(st.booleans()):
            values = sorted(set(values))
        run = PrefixRun.from_packed(
            b"".join(value.to_bytes(bits // 8, "big") for value in values), bits)
        store = NumpyPrefixStore(run, bits)
        reference = RawPrefixStore(
            (Prefix.from_int(value, bits) for value in values), bits)
        probe_prefixes = [Prefix.from_int(value, bits) for value in probes]
        assert store.contains_many(probe_prefixes) == \
            reference.contains_many(probe_prefixes)
        assert len(store) == len(reference)
        assert list(store) == list(reference)


class TestInMemoryEquivalence:
    @pytest.mark.parametrize("bits", WIDTHS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_mutations_match_raw(self, bits, data):
        baseline, added, removed, probes = data.draw(
            packed_run_and_operations(bits))
        store = NumpyPrefixStore(
            (Prefix.from_int(value, bits) for value in baseline), bits)
        reference = RawPrefixStore(
            (Prefix.from_int(value, bits) for value in baseline), bits)
        store.update(Prefix.from_int(value, bits) for value in added)
        reference.update(Prefix.from_int(value, bits) for value in added)
        store.discard_many(Prefix.from_int(value, bits) for value in removed)
        reference.discard_many(Prefix.from_int(value, bits) for value in removed)

        probe_prefixes = [Prefix.from_int(value, bits) for value in probes]
        assert store.contains_many(probe_prefixes) == \
            reference.contains_many(probe_prefixes)
        assert list(store) == list(reference)


#: Widths for the bulk-merge sweep: native integer dtypes plus the S{width}
#: path at 24 and 256 bits.
MERGE_WIDTHS = (8, 24, 32, 64, 256)


@st.composite
def chunk_sequence(draw, bits: int):
    """A baseline and a sequence of add/sub chunks against it.

    Chunk values are drawn from the baseline and a small pool as often as
    from the whole range, so chunks carry internal duplicates, values the
    store already holds and values a later chunk removes; low-zero-byte
    values exercise the NUL-stripping of the ``S`` dtype.
    """
    fresh = st.one_of(_values(bits), _values(bits - 8).map(lambda v: v << 8))
    pool = draw(st.lists(fresh, min_size=1, max_size=12))
    baseline = draw(st.lists(fresh, max_size=30))
    value = st.one_of(fresh, st.sampled_from(pool),
                      st.sampled_from(baseline) if baseline else fresh)
    chunks = draw(st.lists(
        st.tuples(st.sampled_from(("add", "sub")),
                  st.lists(value, max_size=15), st.booleans()),
        min_size=1, max_size=8))
    return baseline, chunks


class TestBulkMergeEquivalence:
    @pytest.mark.parametrize("bits", MERGE_WIDTHS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_chunk_sequence_matches_raw(self, bits, data):
        baseline, chunks = data.draw(chunk_sequence(bits))
        store = NumpyPrefixStore(
            (Prefix.from_int(value, bits) for value in baseline), bits)
        reference = RawPrefixStore(
            (Prefix.from_int(value, bits) for value in baseline), bits)
        for kind, values, as_run in chunks:
            prefixes = [Prefix.from_int(value, bits) for value in values]
            # Server chunks arrive as packed runs; other callers pass lists.
            operand = PrefixRun(prefixes, bits) if as_run else prefixes
            if kind == "add":
                store.update(operand)
                reference.update(prefixes)
            else:
                store.discard_many(operand)
                reference.discard_many(prefixes)
            assert list(store) == list(reference)
        probes = [Prefix.from_int(value, bits)
                  for value in (*baseline, *(v for _, vs, _ in chunks
                                             for v in vs))]
        assert store.contains_many(probes) == reference.contains_many(probes)
