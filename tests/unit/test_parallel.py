"""Unit tests for the process-parallel fleet engine and report merging."""

from __future__ import annotations

import dataclasses

import pytest

pytest.importorskip("numpy")  # the corpus/fleet layers are numpy-backed

from repro.exceptions import ExperimentError
from repro.experiments.fleet import (
    FleetConfig,
    FleetReport,
    pair_digest,
    run_fleet,
)
from repro.experiments.parallel import (
    _merge_hierarchically,
    default_worker_count,
    run_parallel_fleet,
    shard_ranges,
    shard_seed,
)
from repro.experiments.scale import LARGE, XLARGE, Scale

#: Report counters that sum exactly across disjoint client shards, as the
#: report's field metadata declares them.
_MERGE_SUM_FIELDS = tuple(spec.name for spec in dataclasses.fields(FleetReport)
                          if spec.metadata["merge"] == "sum")

TINY = Scale(
    name="tiny-parallel",
    corpus_hosts=40,
    blacklist_fraction=0.002,
    stats_sites=10,
    index_sites=10,
    tracked_targets=3,
    clients=6,
    fleet_urls_per_client=30,
    fleet_batch_size=10,
)


def _report(**overrides) -> FleetReport:
    base = dict(
        mode="batched", scale="tiny", clients=3, urls_checked=90, rounds=3,
        elapsed_seconds=1.0, urls_per_second=90.0, server_update_requests=3,
        server_full_hash_requests=5, server_prefixes_received=7,
        local_hits=7, cache_hits=1, malicious_verdicts=4,
    )
    base.update(overrides)
    return FleetReport(**base)


class TestShardRanges:
    def test_ranges_cover_and_are_contiguous(self):
        for clients, shards in [(10, 3), (100, 7), (5, 5), (1, 1), (16, 4)]:
            ranges = shard_ranges(clients, shards)
            flat = [index for shard in ranges for index in shard]
            assert flat == list(range(clients))

    def test_sizes_differ_by_at_most_one(self):
        for clients, shards in [(10, 3), (1000, 7), (101, 8)]:
            sizes = {len(shard) for shard in shard_ranges(clients, shards)}
            assert max(sizes) - min(sizes) <= 1

    def test_shards_clamped_to_clients(self):
        ranges = shard_ranges(3, 8)
        assert len(ranges) == 3
        assert all(len(shard) == 1 for shard in ranges)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ExperimentError):
            shard_ranges(0, 4)
        with pytest.raises(ExperimentError):
            shard_ranges(10, 0)

    def test_large_and_xlarge_shard_plans(self):
        # The 10^5/10^6 tiers partition exactly without running anything.
        for scale, shards in [(LARGE, 4), (XLARGE, 16)]:
            ranges = shard_ranges(scale.clients, shards)
            assert len(ranges) == shards
            assert sum(len(shard) for shard in ranges) == scale.clients
            assert ranges[0].start == 0
            assert ranges[-1].stop == scale.clients


class TestShardSeed:
    def test_deterministic(self):
        assert shard_seed(42, 3) == shard_seed(42, 3)

    def test_distinct_across_shards_and_fleets(self):
        seeds = {shard_seed(fleet, shard)
                 for fleet in range(4) for shard in range(8)}
        assert len(seeds) == 32


class TestMerge:
    def test_counters_summed(self):
        merged = FleetReport.merge([_report(), _report(urls_checked=30,
                                                       clients=1,
                                                       local_hits=2)])
        assert merged.clients == 4
        assert merged.urls_checked == 120
        assert merged.local_hits == 9
        assert merged.shards == 2

    def test_every_sum_field_is_summed(self):
        # Build two reports with distinct prime-ish values per counter so a
        # missed field can't hide behind a coincidence.
        first = _report(**{name: 2 * offset + 1
                           for offset, name in enumerate(_MERGE_SUM_FIELDS)
                           if name != "shards"})
        second = _report(**{name: 3 * offset + 2
                            for offset, name in enumerate(_MERGE_SUM_FIELDS)
                            if name != "shards"})
        merged = FleetReport.merge([first, second])
        for name in _MERGE_SUM_FIELDS:
            assert getattr(merged, name) == (getattr(first, name)
                                             + getattr(second, name)), name

    def test_elapsed_is_max_not_sum(self):
        # The satellite-2 regression: shards run concurrently, so merged
        # throughput divides by the slowest shard, never the summed time.
        merged = FleetReport.merge([
            _report(elapsed_seconds=1.0, urls_checked=90, urls_per_second=90.0),
            _report(elapsed_seconds=3.0, urls_checked=90, urls_per_second=30.0),
        ])
        assert merged.elapsed_seconds == 3.0
        assert merged.urls_per_second == pytest.approx(180.0 / 3.0)

    def test_ratios_recomputed_from_counters_not_averaged(self):
        # Shard A: 1 detection, correct (precision 1.0).  Shard B: 3
        # detections, 1 correct (precision 1/3).  Averaging the ratios gives
        # 2/3; the exact merged precision is 2/4.
        first = _report(adversary=True, tracking_detections=1,
                        tracking_detected_pairs=1, tracking_correct_pairs=1,
                        tracking_true_pairs=1, tracking_precision=1.0,
                        tracking_pairs=((0, "http://t0.example/"),))
        second = _report(adversary=True, tracking_detections=3,
                         tracking_detected_pairs=3, tracking_correct_pairs=1,
                         tracking_true_pairs=2,
                         tracking_precision=1.0 / 3.0,
                         tracking_pairs=((3, "http://t0.example/"),
                                         (4, "http://t1.example/"),
                                         (5, "http://t2.example/")))
        merged = FleetReport.merge([first, second])
        assert merged.tracking_detected_pairs == 4
        assert merged.tracking_precision == pytest.approx(0.5)
        assert merged.tracking_recall == pytest.approx(2.0 / 3.0)

    def test_digest_recomputed_from_unioned_pairs(self):
        pairs_a = ((0, "http://t0.example/"), (1, "http://t1.example/"))
        pairs_b = ((4, "http://t0.example/"),)
        merged = FleetReport.merge([
            _report(adversary=True, tracking_pairs=pairs_a,
                    tracking_pair_digest=pair_digest(pairs_a)),
            _report(adversary=True, tracking_pairs=pairs_b,
                    tracking_pair_digest=pair_digest(pairs_b)),
        ])
        assert merged.tracking_pairs == tuple(sorted(pairs_a + pairs_b))
        assert merged.tracking_pair_digest == pair_digest(pairs_a + pairs_b)

    def test_mismatched_configuration_rejected(self):
        with pytest.raises(ExperimentError) as excinfo:
            FleetReport.merge([_report(), _report(mode="scalar")])
        assert "mode" in str(excinfo.value)
        with pytest.raises(ExperimentError):
            FleetReport.merge([_report(), _report(profile="mobile")])

    def test_merge_of_nothing_rejected(self):
        with pytest.raises(ExperimentError):
            FleetReport.merge([])

    def test_merge_is_associative(self):
        reports = [
            _report(urls_checked=10, elapsed_seconds=1.0, local_hits=1),
            _report(urls_checked=20, elapsed_seconds=2.0, local_hits=2),
            _report(urls_checked=30, elapsed_seconds=0.5, local_hits=3),
        ]
        flat = FleetReport.merge(reports)
        nested = FleetReport.merge([FleetReport.merge(reports[:2]), reports[2]])
        tree = _merge_hierarchically(list(reports))
        assert flat == nested == tree


class TestEngine:
    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1

    def test_zero_target_adversary_digest_matches_monolithic(self):
        # An adversary with nothing to track reports the empty-set digest,
        # monolithic and merged alike.
        scale = dataclasses.replace(TINY, name="tiny-no-targets",
                                    tracked_targets=0)
        config = FleetConfig(adversary=True)
        monolithic = run_fleet(scale, config)
        merged = run_parallel_fleet(scale, config, workers=2, shards=2,
                                    inline=True)
        assert monolithic.tracked_targets == merged.tracked_targets == 0
        assert (merged.tracking_pair_digest == monolithic.tracking_pair_digest
                == pair_digest(()))

    def test_inline_engine_produces_full_fleet_report(self):
        config = FleetConfig(adversary=True, server_cache_seconds=0.0)
        report = run_parallel_fleet(TINY, config, workers=2, shards=2,
                                    inline=True)
        assert report.clients == TINY.clients
        assert report.shards == 2
        assert report.workers == 1  # inline: no pool was used
        assert report.urls_checked == TINY.clients * TINY.fleet_urls_per_client
        assert report.elapsed_seconds > 0.0
        assert report.urls_per_second > 0.0

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ExperimentError):
            run_parallel_fleet(TINY, workers=0)
