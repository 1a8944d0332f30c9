"""Unit tests for the numpy-vectorized store backend.

Most of this module needs numpy and is skipped when it is absent; the
``TestWithoutNumpy`` subprocess test always runs, pinning the optional
dependency contract (tier-1 must pass and the registry must shrink
gracefully when numpy cannot be imported).
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.clock import ManualClock
from repro.datastructures.memory import DEFAULT_STORE_BACKEND, STORE_FACTORIES
from repro.datastructures.store import RawPrefixStore
from repro.datastructures.vectorized import (
    NUMPY_AVAILABLE,
    NumpyPrefixStore,
    _BucketIndex,
)
from repro.exceptions import DataStructureError
from repro.hashing.prefix import Prefix, PrefixRun

needs_numpy = pytest.mark.skipif(not NUMPY_AVAILABLE, reason="numpy not installed")


def _prefixes(values, bits=32):
    return [Prefix.from_int(value, bits) for value in values]


@needs_numpy
class TestRegistration:
    def test_registry_maps_numpy_to_the_class(self):
        assert STORE_FACTORIES["numpy"] is NumpyPrefixStore
        assert sorted(STORE_FACTORIES) == ["bloom", "delta-coded", "numpy", "raw"]

    def test_numpy_is_the_default_backend(self):
        assert DEFAULT_STORE_BACKEND == "numpy"


@needs_numpy
class TestNumpyPrefixStore:
    def test_sorts_and_dedups(self):
        store = NumpyPrefixStore(_prefixes([9, 3, 7, 3, 9]))
        assert len(store) == 3
        assert store.values() == [3, 7, 9]

    def test_membership_and_mutation(self):
        store = NumpyPrefixStore(_prefixes([10, 20]))
        store.add(Prefix.from_int(15, 32))
        store.add(Prefix.from_int(15, 32))
        store.discard(Prefix.from_int(20, 32))
        store.discard(Prefix.from_int(99, 32))
        assert Prefix.from_int(15, 32) in store
        assert Prefix.from_int(20, 32) not in store
        assert store.values() == [10, 15]

    def test_bulk_update_and_discard(self):
        store = NumpyPrefixStore(_prefixes([1, 5]))
        store.update(_prefixes([3, 5, 7]))
        store.discard_many(_prefixes([1, 7, 42]))
        assert store.values() == [3, 5]

    def test_contains_many_matches_raw(self):
        members = [3, 1, 4, 1, 5, 9, 2, 6, 35, 89, 1000, 2**31]
        probes = _prefixes([0, 1, 2, 7, 9, 35, 2**31, 2**32 - 1, 5, 5])
        vectorized = NumpyPrefixStore(_prefixes(members))
        reference = RawPrefixStore(_prefixes(members))
        assert vectorized.contains_many(probes) == reference.contains_many(probes)

    def test_contains_many_empty_cases(self):
        assert NumpyPrefixStore(_prefixes([1])).contains_many([]) == 0
        assert NumpyPrefixStore().contains_many(_prefixes([1, 2])) == 0

    def test_iteration_yields_sorted_prefixes(self):
        store = NumpyPrefixStore(_prefixes([30, 10, 20]))
        assert [prefix.to_int() for prefix in store] == [10, 20, 30]
        assert all(prefix.bits == 32 for prefix in store)

    @pytest.mark.parametrize("bits", [8, 16, 24, 40, 64, 128, 256])
    def test_non_default_widths_match_raw(self, bits):
        values = [0, 1, 2, (1 << bits) - 1, (1 << bits) // 3]
        probes = _prefixes([0, 2, 3, (1 << bits) - 1, (1 << bits) // 3], bits)
        vectorized = NumpyPrefixStore(_prefixes(values, bits), bits)
        reference = RawPrefixStore(_prefixes(values, bits), bits)
        assert vectorized.contains_many(probes) == reference.contains_many(probes)
        assert list(vectorized) == list(reference)

    def test_trailing_nul_values_survive_iteration(self):
        # The S dtype strips trailing NULs on element access; the store must
        # re-pad when yielding (24-bit width exercises the S path).
        values = _prefixes([0x010000, 0x020200], bits=24)
        store = NumpyPrefixStore(values, bits=24)
        assert sorted(p.value for p in store) == sorted(p.value for p in values)

    def test_wrong_width_probe_rejected(self):
        store = NumpyPrefixStore(_prefixes([1]))
        with pytest.raises(DataStructureError):
            store.contains_many([Prefix.from_int(1, 64)])
        with pytest.raises(DataStructureError):
            store.add(Prefix.from_int(1, 16))

    def test_memory_bytes_matches_raw_layout(self):
        assert NumpyPrefixStore(_prefixes([1, 2, 3])).memory_bytes() == 12


@needs_numpy
class TestPrefixRunConstruction:
    """The same-width run fast path: one frombuffer, unique only if needed."""

    @pytest.mark.parametrize("bits", [24, 32])
    def test_unsorted_run_with_duplicates_is_deduplicated(self, bits):
        run = PrefixRun(_prefixes([9, 3, 7, 1, 5, 5], bits), bits)
        store = NumpyPrefixStore(run, bits)
        assert len(store) == 5
        assert store.values() == [1, 3, 5, 7, 9]
        probes = _prefixes([1, 2, 3, 4, 5, 6, 7, 8, 9], bits)
        assert store.contains_many(probes) == 0b101010101

    def test_empty_run_of_another_width_builds_an_empty_store(self):
        assert len(NumpyPrefixStore(PrefixRun((), 64), 32)) == 0

    def test_wrong_width_run_rejected(self):
        with pytest.raises(DataStructureError):
            NumpyPrefixStore(PrefixRun(_prefixes([1], 64), 64), 32)


@needs_numpy
class TestBucketIndexBuild:
    """The bincount construction equals a binary search per bucket start."""

    @pytest.mark.parametrize("bits", [16, 32, 64])
    def test_offsets_match_searchsorted_construction(self, bits):
        import numpy as np

        rng = np.random.default_rng(bits)
        dtype = np.dtype(f"u{bits // 8}")
        values = np.unique(rng.integers(0, 1 << bits, size=6000,
                                        dtype=np.uint64).astype(dtype))
        assert values.size >= 4096
        index = _BucketIndex.build(values, bits)
        assert index is not None
        top = (index._offsets.size - 1).bit_length() - 1
        starts = np.arange(1 << top, dtype=np.uint64) << (bits - top)
        expected = np.append(np.searchsorted(values, starts.astype(dtype)),
                             values.size)
        assert np.array_equal(index._offsets, expected)
        probes = np.concatenate([values[::7], values[::11] + dtype.type(1)])
        assert np.array_equal(index.hits(probes), np.isin(probes, values))


@needs_numpy
class TestSnapshotRoundTrip:
    def test_numpy_restore_builds_numpy_stores(self, tmp_path):
        from repro.safebrowsing.client import ClientConfig, SafeBrowsingClient
        from repro.safebrowsing.lists import GOOGLE_LISTS
        from repro.safebrowsing.server import SafeBrowsingServer
        from repro.safebrowsing.snapshot import (
            restore_client_snapshot,
            save_client_snapshot,
        )

        clock = ManualClock()
        server = SafeBrowsingServer(GOOGLE_LISTS, clock=clock)
        server.blacklist("goog-malware-shavar", ["evil.example.com/"])
        client = SafeBrowsingClient(
            server, name="vec", clock=clock,
            config=ClientConfig(store_backend="numpy"))
        client.update()
        path = save_client_snapshot(client, tmp_path / "client.snap")

        restored = SafeBrowsingClient(
            server, name="vec-restored", clock=clock,
            config=ClientConfig(store_backend="numpy"))
        count = restore_client_snapshot(restored, path)
        assert count == client.local_database_size()
        stores = [list_state.store for list_state in restored._lists.values()]
        assert all(isinstance(store, NumpyPrefixStore) for store in stores)
        for name, state in client._lists.items():
            assert list(restored._lists[name].store) == list(state.store)
        assert restored.lookup("http://evil.example.com/").is_malicious


class TestWithoutNumpy:
    """The optional-dependency contract, exercised with numpy blocked."""

    def test_registries_shrink_and_constructors_raise(self):
        # A meta-path blocker makes ``import numpy`` fail inside a fresh
        # interpreter, simulating the numpy-absent CI leg even when numpy is
        # installed here.
        src_root = Path(repro.__file__).parents[1]
        script = textwrap.dedent(
            """
            import sys

            class Blocker:
                def find_spec(self, name, path=None, target=None):
                    if name == "numpy" or name.startswith("numpy."):
                        raise ModuleNotFoundError("numpy blocked for test")
                    return None

            sys.meta_path.insert(0, Blocker())

            from repro.datastructures.vectorized import (
                NUMPY_AVAILABLE, NumpyPrefixStore)
            assert NUMPY_AVAILABLE is False

            from repro.datastructures.memory import (
                DEFAULT_STORE_BACKEND, STORE_FACTORIES)
            assert sorted(STORE_FACTORIES) == ["bloom", "delta-coded", "raw"]
            assert DEFAULT_STORE_BACKEND == "raw"

            from repro.safebrowsing.client import ClientConfig
            assert ClientConfig().store_backend == "raw"

            from repro.cli import build_parser
            build_parser()

            from repro.exceptions import DataStructureError, UpdateError
            try:
                ClientConfig(store_backend="numpy")
            except UpdateError as error:
                assert "numpy" in str(error)
            else:
                raise AssertionError("ClientConfig accepted 'numpy'")

            try:
                NumpyPrefixStore()
            except DataStructureError as error:
                assert "numpy" in str(error)
            else:
                raise AssertionError("NumpyPrefixStore built without numpy")

            print("numpy-absent contract OK")
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(src_root)},
        )
        assert result.returncode == 0, result.stderr
        assert "numpy-absent contract OK" in result.stdout
