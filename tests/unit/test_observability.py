"""Unit tests for the observability layer: metrics core, quantiles,
export round-trips, and the shared stats snapshot paths.
"""

from __future__ import annotations

import math
import weakref

import pytest

from repro.observability.export import (
    parse_prometheus_text,
    render_json,
    render_prometheus,
    snapshot_samples,
)
from repro.clock import ManualClock
from repro.observability.metrics import (
    LATENCY_BOUNDS,
    NULL_REGISTRY,
    SIZE_BOUNDS,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    exported_fields,
    log_bounds,
    merge_snapshots,
    registry_or_null,
)
from repro.observability.quantiles import histogram_quantile, percentile
from repro.safebrowsing.chunks import ChunkRange
from repro.safebrowsing.client import SafeBrowsingClient
from repro.safebrowsing.cookie import SafeBrowsingCookie
from repro.safebrowsing.lists import GOOGLE_LISTS
from repro.safebrowsing.protocol import (
    ClientStats,
    FullHashRequest,
    ListState,
    UpdateRequest,
)
from repro.safebrowsing.server import SafeBrowsingServer, ServerCore, ServerStats
from repro.safebrowsing.transport import InProcessTransport, TransportStats


# -- metrics core ----------------------------------------------------------


class TestCounterGauge:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "Requests")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("requests_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("queue_depth")
        gauge.set(10)
        gauge.inc(3)
        gauge.dec()
        assert gauge.value == 12

    def test_redeclaration_returns_same_child(self):
        registry = MetricsRegistry()
        first = registry.counter("requests_total", "Requests")
        first.inc(2)
        second = registry.counter("requests_total", "Requests")
        assert second is first

    def test_redeclaration_with_other_kind_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError, match="re-declared"):
            registry.gauge("x_total")

    def test_redeclaration_with_other_labels_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labels=("endpoint",))
        with pytest.raises(ValueError, match="re-declared"):
            registry.counter("x_total", labels=("kind",))

    def test_labeled_family_children(self):
        registry = MetricsRegistry()
        family = registry.counter("requests_total", labels=("endpoint",))
        family.labels(endpoint="downloads").inc(2)
        family.labels(endpoint="gethash").inc(3)
        with pytest.raises(ValueError, match="expects labels"):
            family.labels(kind="downloads")
        snap = registry.snapshot()["families"]["requests_total"]
        assert snap["children"] == [
            {"labels": ["downloads"], "state": 2},
            {"labels": ["gethash"], "state": 3},
        ]


class TestHistogram:
    def test_bucket_assignment_and_overflow(self):
        hist = Histogram(bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 100.0, 1000.0):
            hist.observe(value)
        # <=1, <=10, <=100, +Inf — bisect_left puts exact bounds in their
        # own bucket (counts[i] counts observations <= bounds[i]).
        assert hist.counts == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(1106.5)

    def test_bounds_must_be_ascending_distinct(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=(10.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=())

    def test_merge_exact(self):
        a = Histogram(bounds=(1.0, 10.0))
        b = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 5.0):
            a.observe(value)
        for value in (5.0, 50.0):
            b.observe(value)
        a.merge_state(b.state())
        assert a.counts == [1, 2, 1]
        assert a.sum == pytest.approx(60.5)

    def test_merge_rejects_different_bounds(self):
        a = Histogram(bounds=(1.0, 10.0))
        b = Histogram(bounds=(1.0, 100.0))
        with pytest.raises(ValueError, match="bounds"):
            a.merge_state(b.state())

    def test_quantile_delegates_to_shared_module(self):
        hist = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 0.6, 5.0, 50.0):
            hist.observe(value)
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(0.5) == 1.0  # rank 1 of 4 lands in bucket <=1
        assert hist.quantile(0.75) == 10.0
        assert hist.quantile(1.0) == math.inf

    def test_log_bounds(self):
        assert log_bounds(1.0, 2.0, 3) == (1.0, 2.0, 4.0)
        with pytest.raises(ValueError):
            log_bounds(0.0, 2.0, 3)
        with pytest.raises(ValueError):
            log_bounds(1.0, 1.0, 3)
        assert len(LATENCY_BOUNDS) == 26
        assert len(SIZE_BOUNDS) == 21


class TestMerge:
    def test_merge_snapshots_sums_counters(self):
        shards = []
        for amount in (2, 3, 7):
            registry = MetricsRegistry()
            registry.counter("requests_total", "Requests").inc(amount)
            shards.append(registry.snapshot())
        merged = merge_snapshots(shards)
        child = merged["families"]["requests_total"]["children"][0]
        assert child["state"] == 12

    def test_merge_sums_histogram_buckets(self):
        shards = []
        for values in ((0.5,), (5.0, 50.0)):
            registry = MetricsRegistry()
            hist = registry.histogram("latency", bounds=(1.0, 10.0))
            for value in values:
                hist.observe(value)
            shards.append(registry.snapshot())
        merged = merge_snapshots(shards)
        state = merged["families"]["latency"]["children"][0]["state"]
        assert state["counts"] == [1, 1, 1]
        assert state["sum"] == pytest.approx(55.5)

    def test_merge_into_live_registry(self):
        target = MetricsRegistry()
        target.counter("requests_total").inc(1)
        source = MetricsRegistry()
        source.counter("requests_total").inc(2)
        source.gauge("depth").set(4)
        target.merge(source)
        assert target.counter("requests_total").value == 3
        assert target.gauge("depth").value == 4

    def test_merge_disagreeing_kind_rejected(self):
        target = MetricsRegistry()
        target.counter("x_total").inc(1)
        source = MetricsRegistry()
        source.gauge("x_total").set(1)
        with pytest.raises(ValueError, match="disagrees"):
            target.merge_snapshot(source.snapshot())


class TestNullRegistry:
    def test_all_declarations_share_noop_child(self):
        counter = NULL_REGISTRY.counter("a_total")
        hist = NULL_REGISTRY.histogram("b_seconds")
        assert counter is hist
        counter.inc(5)
        hist.observe(1.0)
        counter.labels(endpoint="x").inc()
        assert counter.value == 0.0
        assert hist.quantile(0.99) == 0.0
        assert NULL_REGISTRY.snapshot() == {"families": {}}

    def test_null_registry_is_disabled(self):
        assert NULL_REGISTRY.enabled is False
        assert MetricsRegistry().enabled is True
        with pytest.raises(TypeError):
            NULL_REGISTRY.merge_snapshot({"families": {}})

    def test_registry_or_null(self):
        assert registry_or_null(None) is NULL_REGISTRY
        live = MetricsRegistry()
        assert registry_or_null(live) is live
        assert isinstance(NULL_REGISTRY, NullRegistry)


# -- Stats objects a registry exports --------------------------------------


def _children(snapshot: dict, name: str) -> dict:
    return {tuple(child["labels"]): child["state"]
            for child in snapshot["families"][name]["children"]}


#: The families the layers' Stats fields export, and nothing counts again.
STATS_FAMILIES = {
    "client_urls_checked_total", "client_full_hash_requests_total",
    "client_update_requests_total", "client_update_chunks_total",
    "transport_requests_total", "transport_failures_total",
    "server_requests_total", "server_chunks_served_total",
    "server_prefixes_received_total", "server_full_hashes_served_total",
    "server_response_cache_total", "server_log_entries_evicted_total",
}


class TestRegisterStats:
    def test_null_registry_ignores_stats(self):
        stats = ClientStats(urls_checked=3)
        held = weakref.ref(stats)
        NULL_REGISTRY.register_stats(stats)
        assert NULL_REGISTRY.snapshot() == {"families": {}}
        del stats
        assert held() is None  # the shared null registry keeps nothing

    def test_registering_twice_counts_once(self):
        registry = MetricsRegistry()
        stats = ClientStats(urls_checked=3)
        registry.register_stats(stats)
        registry.register_stats(stats)
        assert _children(registry.snapshot(),
                         "client_urls_checked_total") == {(): 3}

    def test_server_bound_twice_counts_once(self):
        registry = MetricsRegistry()
        server = ServerCore(GOOGLE_LISTS[:1])
        server.set_metrics(registry)
        server.set_metrics(registry)
        server.process_update(UpdateRequest(
            cookie=SafeBrowsingCookie("bound-twice"),
            states=(ListState("goog-malware-shavar", ChunkRange(set()),
                              ChunkRange(set())),)))
        assert _children(registry.snapshot(), "server_requests_total") == {
            ("downloads",): 1, ("gethash",): 0}

    def test_two_client_stats_sum(self):
        registry = MetricsRegistry()
        registry.register_stats(ClientStats(urls_checked=3, chunks_received=1))
        registry.register_stats(ClientStats(urls_checked=4))
        snapshot = registry.snapshot()
        assert _children(snapshot, "client_urls_checked_total") == {(): 7}
        assert _children(snapshot, "client_update_chunks_total") == {(): 1}

    def test_increments_after_registration_show_in_the_next_snapshot(self):
        registry = MetricsRegistry()
        stats = TransportStats()
        registry.register_stats(stats)
        assert _children(registry.snapshot(), "transport_requests_total") == {
            ("downloads",): 0, ("gethash",): 0}
        stats.full_hash_requests += 2
        assert _children(registry.snapshot(), "transport_requests_total") == {
            ("downloads",): 0, ("gethash",): 2}

    def test_exported_family_declared_live_raises(self):
        live = MetricsRegistry()
        live.counter("client_urls_checked_total").inc()
        with pytest.raises(ValueError, match="live instrument"):
            live.register_stats(ClientStats())
        exported = MetricsRegistry()
        exported.register_stats(ClientStats())
        with pytest.raises(ValueError, match="Stats field"):
            exported.counter("client_urls_checked_total")
        with pytest.raises(ValueError, match="Stats field"):
            exported.merge_snapshot(live.snapshot())

    def test_merged_registries_equal_one_holding_both(self):
        a = ClientStats(urls_checked=3, full_hash_requests=1)
        b = ClientStats(urls_checked=5, update_requests=2)
        server = ServerStats(update_requests=1, response_cache_hits=4)
        first, second, both = (MetricsRegistry() for _ in range(3))
        for registry, objects in ((first, (a, server)), (second, (b,)),
                                  (both, (a, b, server))):
            for stats in objects:
                registry.register_stats(stats)
        first.counter("client_check_batches_total").inc(2)
        both.counter("client_check_batches_total").inc(2)
        assert merge_snapshots([first.snapshot(), second.snapshot()]) == (
            both.snapshot())

    def test_exported_families_round_trip_prometheus(self):
        registry = MetricsRegistry()
        registry.register_stats(ServerStats(full_hash_requests=2,
                                            prefixes_received=5))
        parsed = parse_prometheus_text(render_prometheus(registry))
        assert parsed.samples == snapshot_samples(registry)
        assert parsed.samples[("server_requests_total",
                               (("endpoint", "gethash"),))] == 2.0
        assert parsed.types["server_requests_total"] == "counter"


class TestLayersExportTheirStats:
    def test_every_stats_backed_family_equals_its_field(self):
        # One client, an in-process transport and a server on one registry.
        registry = MetricsRegistry()
        clock = ManualClock()
        server = SafeBrowsingServer(GOOGLE_LISTS[:1], clock=clock,
                                    max_log_entries=1, metrics=registry)
        (evil,) = server.blacklist("goog-malware-shavar", ["evil.example/"])
        server.blacklist("goog-malware-shavar", ["bad.example/"])
        transport = InProcessTransport(server, metrics=registry)
        client = SafeBrowsingClient(transport, clock=clock,
                                    lists=["goog-malware-shavar"],
                                    metrics=registry)
        client.update()
        client.check_urls(["http://evil.example/", "http://safe.example/"])
        client.lookup("http://bad.example/")
        client.lookup("http://evil.example/")  # from the client's cache
        request = FullHashRequest(cookie=client.cookie, prefixes=(evil,))
        transport.send_full_hash(request)
        transport.send_full_hash(request)  # a server response-cache hit

        snapshot = registry.snapshot()
        families = set()
        for stats in (client.stats, transport.stats, server.stats):
            for field, family, _, labels in exported_fields(stats):
                labels = tuple(labels.values())
                assert _children(snapshot, family)[labels] == (
                    getattr(stats, field)), (family, labels)
                assert getattr(stats, field) > 0 or field == "failures_injected"
                families.add(family)
        assert families == STATS_FAMILIES


# -- quantiles -------------------------------------------------------------


class TestQuantiles:
    def test_percentile_lower_nearest_rank(self):
        samples = [4.0, 1.0, 3.0, 2.0]
        # The legacy benchmark rule: sorted(samples)[int(f * (n - 1))].
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 0.5) == 2.0
        assert percentile(samples, 0.99) == 3.0
        assert percentile(samples, 1.0) == 4.0

    def test_percentile_matches_legacy_benchmark_helper(self):
        def legacy(samples, fraction):
            ordered = sorted(samples)
            return ordered[int(fraction * (len(ordered) - 1))]

        samples = [float(x * 37 % 101) for x in range(50)]
        for fraction in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert percentile(samples, fraction) == legacy(samples, fraction)

    def test_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_histogram_quantile(self):
        assert histogram_quantile((1.0, 10.0), [5, 4, 1], 0.5) == 1.0
        assert histogram_quantile((1.0, 10.0), [5, 4, 1], 0.9) == 10.0
        assert histogram_quantile((1.0, 10.0), [5, 4, 1], 1.0) == math.inf
        assert histogram_quantile((1.0, 10.0), [0, 0, 0], 0.99) == 0.0
        with pytest.raises(ValueError):
            histogram_quantile((1.0,), [1], 0.5)  # missing overflow bucket


# -- export / round-trip ---------------------------------------------------


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    requests = registry.counter("requests_total", "Requests served",
                                labels=("endpoint",))
    requests.labels(endpoint="downloads").inc(3)
    requests.labels(endpoint="gethash").inc(7)
    registry.gauge("queue_depth", "Pending work").set(4)
    hist = registry.histogram("latency_seconds", "Latency",
                              bounds=(0.001, 0.01, 0.1))
    for value in (0.0005, 0.005, 0.05, 0.5):
        hist.observe(value)
    weird = registry.counter("escapes_total", labels=("path",))
    weird.labels(path='a"b\\c\nd').inc(1)
    return registry


class TestExport:
    def test_prometheus_round_trip_bit_identical(self):
        registry = _populated_registry()
        parsed = parse_prometheus_text(render_prometheus(registry))
        assert parsed.samples == snapshot_samples(registry)
        assert parsed.types["requests_total"] == "counter"
        assert parsed.types["latency_seconds"] == "histogram"
        assert parsed.helps["requests_total"] == "Requests served"

    def test_histogram_exposition_shape(self):
        registry = MetricsRegistry()
        hist = registry.histogram("d_seconds", bounds=(1.0, 10.0))
        hist.observe(5.0)
        text = render_prometheus(registry)
        assert 'd_seconds_bucket{le="1"} 0' in text
        assert 'd_seconds_bucket{le="10"} 1' in text
        assert 'd_seconds_bucket{le="+Inf"} 1' in text
        assert "d_seconds_sum 5" in text
        assert "d_seconds_count 1" in text

    def test_render_json_document(self):
        registry = _populated_registry()
        document = render_json(registry)
        requests = document["metrics"]["requests_total"]
        assert requests["kind"] == "counter"
        assert {s["labels"]["endpoint"]: s["value"]
                for s in requests["samples"]} == {"downloads": 3, "gethash": 7}
        latency = document["metrics"]["latency_seconds"]["samples"][0]
        assert latency["count"] == 4
        assert latency["bucket_counts"] == [1, 1, 1, 1]

    def test_renderers_accept_snapshots(self):
        registry = _populated_registry()
        snapshot = registry.snapshot()
        assert render_prometheus(snapshot) == render_prometheus(registry)
        assert render_json(snapshot) == render_json(registry)

    def test_merged_registry_round_trips(self):
        shards = []
        for amount in (2, 5):
            registry = _populated_registry()
            registry.counter("requests_total", "Requests served",
                             labels=("endpoint",)).labels(
                                 endpoint="downloads").inc(amount)
            shards.append(registry.snapshot())
        merged = merge_snapshots(shards)
        parsed = parse_prometheus_text(render_prometheus(merged))
        assert parsed.samples == snapshot_samples(merged)
        assert parsed.samples[
            ("requests_total", (("endpoint", "downloads"),))] == 13.0

    def test_parser_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_prometheus_text('x{label=unquoted} 1')
        with pytest.raises(ValueError):
            parse_prometheus_text("lonely_name")


# -- the shared stats snapshot paths (satellite: one field list) -----------


class TestStatsSnapshots:
    def test_client_stats_as_dict_covers_every_field(self):
        stats = ClientStats(urls_checked=5, local_hits=2,
                            policy_delay_seconds=1.5)
        stats.record_extra("dummy", 3)
        data = stats.as_dict()
        assert data["urls_checked"] == 5
        assert data["local_hits"] == 2
        assert data["policy_delay_seconds"] == 1.5
        assert data["extra_requests"] == {"dummy": 3}
        # The snapshot is a copy: mutating it must not touch the stats.
        data["extra_requests"]["dummy"] = 99
        assert stats.extra_requests["dummy"] == 3

    def test_client_stats_aggregate_matches_hand_sum(self):
        a = ClientStats(urls_checked=3, full_hash_requests=1,
                        policy_delay_seconds=0.5)
        a.record_extra("dummy", 2)
        b = ClientStats(urls_checked=4, full_hash_requests=2,
                        cache_hits=6)
        b.record_extra("dummy", 1)
        b.record_extra("mix", 5)
        totals = ClientStats.aggregate([a, b])
        assert totals["urls_checked"] == 7
        assert totals["full_hash_requests"] == 3
        assert totals["cache_hits"] == 6
        assert totals["policy_delay_seconds"] == pytest.approx(0.5)
        assert totals["extra_requests"] == {"dummy": 3, "mix": 5}

    def test_client_stats_aggregate_accepts_snapshots(self):
        a = ClientStats(urls_checked=3)
        as_objects = ClientStats.aggregate([a])
        as_dicts = ClientStats.aggregate([a.as_dict()])
        assert as_objects == as_dicts

    def test_server_stats_as_dict_collapses_clients_seen(self):
        stats = ServerStats(update_requests=2)
        stats.clients_seen.update({"a", "b", "c"})
        data = stats.as_dict()
        assert data["update_requests"] == 2
        assert data["clients_seen"] == 3

    def test_transport_stats_as_dict(self):
        stats = TransportStats(requests_sent=4, update_requests=1,
                               full_hash_requests=3,
                               simulated_latency_seconds=0.25)
        assert stats.as_dict() == {
            "requests_sent": 4,
            "update_requests": 1,
            "full_hash_requests": 3,
            "failures_injected": 0,
            "retries": 0,
            "connections_opened": 0,
            "bytes_sent": 0,
            "bytes_received": 0,
            "simulated_latency_seconds": 0.25,
        }
