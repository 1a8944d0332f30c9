"""Property tests: shard-merged metrics registries equal the monolithic one.

The observability layer extends the parallel engine's exactness claim (see
``test_prop_parallel_fleet.py``) to the metrics plane: a fleet sharded over
N workers runs one :class:`MetricsRegistry` per shard, and the merged
snapshot must equal what a monolithic run's single registry records —
family by family, counter by counter, histogram bucket by histogram
bucket.

One family class is legitimately non-deterministic: ``*_wall_seconds``
histograms measure real elapsed time, so only their observation *counts*
are shard-deterministic (the same operations ran; how long each took is
the machine's business).  Histogram sums of deterministic quantities are
compared with a float tolerance because summation order differs between
one registry and N merged ones.  Everything else must match exactly.

The response cache is shard-local, so exact runs disable it
(``server_cache_seconds=0.0``) — the same knob the report-equality suite
turns.  The merged snapshot must also survive the Prometheus round trip.
"""

from __future__ import annotations

import math

import pytest

pytest.importorskip("numpy")  # the corpus/fleet layers are numpy-backed

from repro.experiments.fleet import FleetConfig, FleetSimulator
from repro.experiments.parallel import run_parallel_fleet
from repro.experiments.scale import Scale
from repro.observability.export import parse_prometheus_text, render_prometheus, snapshot_samples
from repro.observability.metrics import exported_fields

TINY = Scale(
    name="tiny-prop-observability",
    corpus_hosts=40,
    blacklist_fraction=0.002,
    stats_sites=10,
    index_sites=10,
    tracked_targets=3,
    clients=8,
    fleet_urls_per_client=30,
    fleet_batch_size=10,
)


def _metrics_config(**overrides) -> FleetConfig:
    base = dict(
        mode="batched",
        collect_metrics=True,
        server_cache_seconds=0.0,  # response cache is shard-local
        seed=1234,
    )
    base.update(overrides)
    return FleetConfig(**base)


def _assert_snapshots_equal(mono: dict, merged: dict) -> None:
    mono_families = mono["families"]
    merged_families = merged["families"]
    assert sorted(mono_families) == sorted(merged_families), (
        "shard merge changed the family catalog")
    for name, mono_fam in mono_families.items():
        merged_fam = merged_families[name]
        assert mono_fam["kind"] == merged_fam["kind"], name
        assert mono_fam["label_names"] == merged_fam["label_names"], name
        mono_children = {tuple(c["labels"]): c["state"]
                         for c in mono_fam["children"]}
        merged_children = {tuple(c["labels"]): c["state"]
                           for c in merged_fam["children"]}
        assert sorted(mono_children) == sorted(merged_children), name
        for labels, mono_state in mono_children.items():
            merged_state = merged_children[labels]
            if mono_fam["kind"] in ("counter", "gauge"):
                assert mono_state == merged_state, (name, labels)
                continue
            assert mono_state["bounds"] == merged_state["bounds"], name
            if name.endswith("_wall_seconds"):
                # Wall time is machine-dependent; only the observation
                # count is deterministic.
                assert (sum(mono_state["counts"])
                        == sum(merged_state["counts"])), (name, labels)
                continue
            assert mono_state["counts"] == merged_state["counts"], (
                name, labels)
            assert math.isclose(mono_state["sum"], merged_state["sum"],
                                rel_tol=1e-9, abs_tol=1e-12), (name, labels)


@pytest.mark.parametrize("transport_kwargs", [
    pytest.param({"transport": "in-process"}, id="in-process"),
    pytest.param({"transport": "simulated", "latency_seconds": 0.01,
                  "latency_jitter_seconds": 0.0}, id="simulated"),
])
@pytest.mark.parametrize("shards", [1, 2, 8])
def test_merged_registries_equal_monolithic(transport_kwargs, shards):
    config = _metrics_config(**transport_kwargs)
    monolithic = FleetSimulator(TINY, config).run()
    merged = run_parallel_fleet(TINY, config, workers=2, shards=shards,
                                inline=True)
    assert monolithic.metrics is not None
    assert merged.metrics is not None
    _assert_snapshots_equal(monolithic.metrics, merged.metrics)


def test_merged_snapshot_survives_prometheus_round_trip():
    config = _metrics_config()
    merged = run_parallel_fleet(TINY, config, workers=2, shards=2,
                                inline=True)
    parsed = parse_prometheus_text(render_prometheus(merged.metrics))
    assert parsed.samples == snapshot_samples(merged.metrics)


def test_metrics_off_by_default():
    report = FleetSimulator(TINY, FleetConfig(mode="batched")).run()
    assert report.metrics is None
    merged = run_parallel_fleet(TINY, FleetConfig(mode="batched"),
                                workers=2, shards=2, inline=True)
    assert merged.metrics is None


class _RecordingSimulator(FleetSimulator):
    """Keeps every server, client and transport the run builds (restarted
    clients included), so a test can sum their Stats objects."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.built = []

    def build_server(self, clock):
        server = super().build_server(clock)
        self.built.append(server)
        return server

    def _build_client(self, server, clock, index):
        client = super()._build_client(server, clock, index)
        self.built += [client, client.transport]
        return client


def test_registry_agrees_with_report_counters():
    # Each stats-backed family is the sum of its Stats field over every
    # object the run built, and agrees with the report where it has one.
    config = _metrics_config(transport="simulated", failure_rate=0.05,
                             profile="global-mix", churn_fraction=0.5,
                             restart_interval=2)
    simulator = _RecordingSimulator(TINY, config)
    report = simulator.run()
    assert report.client_restarts > 0
    families = report.metrics["families"]

    def value(name, *labels):
        children = {tuple(c["labels"]): c["state"]
                    for c in families[name]["children"]}
        return children[labels]

    expected = {}
    for stats in (obj.stats for obj in simulator.built):
        for field, family, _, labels in exported_fields(stats):
            key = (family, *labels.values())
            expected[key] = expected.get(key, 0) + getattr(stats, field)
    assert len(expected) == 15
    for key, total in expected.items():
        assert value(*key) == total, key
    assert value("transport_failures_total") > 0

    assert value("fleet_urls_checked_total") == report.urls_checked
    assert value("client_full_hash_requests_total") == (
        report.client_full_hash_requests)
    assert value("client_update_requests_total") == (
        report.client_update_requests)
    assert value("server_prefixes_received_total") == (
        report.server_prefixes_received)
    assert value("server_requests_total", "downloads") == (
        report.server_update_requests)
    assert value("server_requests_total", "gethash") == (
        report.server_full_hash_requests)
    assert value("server_response_cache_total", "hit") == (
        report.server_cache_hits)
    assert value("server_response_cache_total", "miss") == (
        report.server_cache_misses)
    assert value("server_log_entries_evicted_total") == (
        report.log_entries_evicted)
