"""Perf smoke test for the fleet simulator (``slow`` marker, not tier-1).

Runs the full scalar-vs-batched comparison at SMALL scale and checks that

* the whole thing finishes under a generous wall-clock bound (a perf
  regression that makes the simulator orders of magnitude slower fails
  loudly instead of silently eating benchmark time), and
* the batched mode's server-side traffic matches the scalar mode's (one
  ``lookup`` per URL): identical prefixes revealed, identical update polls,
  and at most as many full-hash requests (coalescing can only merge them).

Run explicitly with ``pytest -m slow``.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.fleet import FleetConfig, fleet_comparison, run_fleet
from repro.experiments.scale import MEDIUM, SMALL

#: Generous bound; the run takes well under a second on a laptop.
WALL_CLOCK_BOUND_SECONDS = 120.0


@pytest.mark.slow
def test_fleet_smoke_small_scale_matches_scalar_oracle():
    started = time.perf_counter()
    scalar, batched = fleet_comparison(SMALL)
    wall = time.perf_counter() - started

    assert wall < WALL_CLOCK_BOUND_SECONDS

    expected_urls = SMALL.clients * SMALL.fleet_urls_per_client
    assert scalar.urls_checked == expected_urls
    assert batched.urls_checked == expected_urls

    # The oracle check: what the fleet reveals to the provider must be
    # mode-independent even though the batched mode repackages requests.
    assert batched.traffic_signature() == scalar.traffic_signature()
    assert batched.server_update_requests == scalar.server_update_requests
    assert batched.server_full_hash_requests <= scalar.server_full_hash_requests
    assert batched.malicious_verdicts == scalar.malicious_verdicts
    assert batched.cache_hits == scalar.cache_hits


@pytest.mark.slow
def test_fleet_smoke_simulated_network_transport():
    """The same fleet over the seeded network model: latency moves the shared
    clock and deliveries may fail, but the run completes deterministically."""
    config = FleetConfig(transport="simulated", latency_seconds=0.02,
                         latency_jitter_seconds=0.01, failure_rate=0.0)
    started = time.perf_counter()
    report = run_fleet(SMALL, config)
    wall = time.perf_counter() - started

    assert wall < WALL_CLOCK_BOUND_SECONDS
    assert report.transport == "simulated"
    assert report.urls_checked == SMALL.clients * SMALL.fleet_urls_per_client
    assert report.transport_failures == 0
    assert report.server_full_hash_requests > 0

    # Determinism: the seeded network produces the identical run twice.
    repeat = run_fleet(SMALL, config)
    assert repeat.traffic_signature() == report.traffic_signature()
    assert repeat.server_full_hash_requests == report.server_full_hash_requests


@pytest.mark.slow
@pytest.mark.parametrize("transport", ["in-process", "simulated"])
def test_fleet_adversary_smoke_medium_scale(transport):
    """The acceptance bar: at MEDIUM scale, on both transports, the streaming
    adversary detects planted visits with perfect precision against the
    simulator's ground truth — while the bounded request log rotates."""
    # A tight log bound guarantees rotation at MEDIUM traffic (the default
    # 10k bound is bigger than a coalesced batched run's request count).
    config = FleetConfig(adversary=True, transport=transport,
                         latency_seconds=0.01, latency_jitter_seconds=0.005,
                         max_log_entries=100)
    started = time.perf_counter()
    report = run_fleet(MEDIUM, config)
    wall = time.perf_counter() - started

    assert wall < WALL_CLOCK_BOUND_SECONDS
    assert report.adversary
    assert report.transport == transport
    assert report.tracked_targets == MEDIUM.tracked_targets
    assert report.tracking_detections > 0
    assert report.tracking_true_pairs > 0
    assert report.tracking_precision == 1.0
    assert report.tracking_recall == 1.0
    # MEDIUM traffic overruns the default log bound: post-hoc detection
    # would under-count, the observer-fed detector must not.
    assert report.log_entries_evicted > 0


@pytest.mark.slow
def test_parallel_fleet_smoke_large_scale():
    """The 10^5-client tier end to end: the parallel engine shards LARGE
    over real worker processes, the merged accounting is complete, and the
    shared server state produces response-cache hits."""
    from repro.experiments.parallel import run_parallel_fleet
    from repro.experiments.scale import LARGE

    started = time.perf_counter()
    report = run_parallel_fleet(LARGE, FleetConfig(mode="batched"), workers=2)
    wall = time.perf_counter() - started

    assert wall < 900.0  # generous: ~10^5 clients on whatever CI offers
    assert report.clients == LARGE.clients
    assert report.urls_checked == LARGE.clients * LARGE.fleet_urls_per_client
    assert report.shards == 2
    assert report.workers == 2
    # At population scale many clients share identical full-hash request
    # keys within a round, so the replica response caches must actually hit.
    assert report.server_cache_hit_rate > 0.0
    assert report.server_full_hash_requests > 0
