"""Unit tests for the Table 2 memory accounting."""

from __future__ import annotations

import hashlib

import pytest

from repro.datastructures.memory import (
    MemoryReport,
    STORE_FACTORIES,
    store_memory_report,
    widen_prefixes,
)


@pytest.fixture(scope="module")
def digests() -> list[bytes]:
    return [hashlib.sha256(f"url-{i}".encode()).digest() for i in range(3000)]


@pytest.fixture(scope="module")
def dense_prefixes():
    """Prefixes whose density matches the deployed blacklists.

    The real lists pack ~630k prefixes into the 32-bit space, so consecutive
    sorted prefixes are a few thousand apart — the regime in which delta
    coding achieves the paper's 1.9x compression.  The fixture reproduces
    that gap distribution directly instead of hashing hundreds of thousands
    of URLs in a unit test.
    """
    from repro.hashing.prefix import Prefix

    return [Prefix.from_int(i * 6_800 + (i % 7) * 13, 32) for i in range(5000)]


class TestStoreMemoryReport:
    def test_raw_size_is_exact(self, digests):
        report = store_memory_report(widen_prefixes(digests, 32), 32)
        assert report.raw_bytes == len(digests) * 4

    def test_delta_beats_raw_at_deployed_density(self, dense_prefixes):
        report = store_memory_report(dense_prefixes, 32)
        assert report.delta_bytes < report.raw_bytes
        assert 1.5 <= report.compression_ratio <= 2.5

    def test_bloom_loses_at_32_bits(self, dense_prefixes):
        report = store_memory_report(dense_prefixes, 32)
        assert not report.bloom_wins

    def test_bloom_wins_at_128_bits(self, digests):
        report = store_memory_report(widen_prefixes(digests, 128), 128)
        assert report.bloom_wins

    def test_bloom_size_constant_across_widths(self, digests):
        report32 = store_memory_report(widen_prefixes(digests, 32), 32)
        report128 = store_memory_report(widen_prefixes(digests, 128), 128)
        assert report32.bloom_bytes == report128.bloom_bytes

    def test_megabyte_conversion(self, digests):
        report = store_memory_report(widen_prefixes(digests, 32), 32)
        assert report.raw_megabytes == pytest.approx(report.raw_bytes / 1e6)
        assert report.delta_megabytes == pytest.approx(report.delta_bytes / 1e6)
        assert report.bloom_megabytes == pytest.approx(report.bloom_bytes / 1e6)

    def test_entry_count_recorded(self, digests):
        report = store_memory_report(widen_prefixes(digests, 32), 32)
        assert report.entry_count == len(digests)

    def test_empty_report_compression_ratio(self):
        report = MemoryReport(prefix_bits=32, entry_count=0, raw_bytes=0,
                              delta_bytes=0, bloom_bytes=8)
        assert report.compression_ratio == float("inf")


class TestHelpers:
    def test_widen_prefixes_width(self, digests):
        prefixes = widen_prefixes(digests[:10], 64)
        assert all(prefix.bits == 64 for prefix in prefixes)

    def test_store_factories_cover_paper_rows(self):
        # The numpy-vectorized backend joins the registry only when numpy is
        # importable; the paper-table backends are always present.
        from repro.datastructures.vectorized import NUMPY_AVAILABLE
        expected = ["bloom", "delta-coded", "raw"]
        if NUMPY_AVAILABLE:
            expected = ["bloom", "delta-coded", "numpy", "raw"]
        assert sorted(STORE_FACTORIES) == expected

    def test_registry_maps_names_to_store_classes(self):
        from repro.datastructures import (
            BloomPrefixStore,
            DeltaCodedPrefixStore,
            RawPrefixStore,
        )
        assert STORE_FACTORIES["raw"] is RawPrefixStore
        assert STORE_FACTORIES["delta-coded"] is DeltaCodedPrefixStore
        assert STORE_FACTORIES["bloom"] is BloomPrefixStore

    def test_store_factories_build_working_stores(self, digests):
        prefixes = widen_prefixes(digests[:50], 32)
        for name, factory in STORE_FACTORIES.items():
            store = factory(prefixes, 32)
            assert len(store) == 50, name
            assert prefixes[0] in store, name
