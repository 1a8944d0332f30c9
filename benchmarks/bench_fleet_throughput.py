"""Benchmark: fleet traffic throughput, batched pipeline vs. scalar oracle.

The measured operation is the batched fleet run at MEDIUM scale (8 clients,
2,500 URLs each, one shared logical clock).  The scalar run over identical
streams provides the baseline; the acceptance bar for the batched lookup
pipeline is a >= 10x URLs/s speedup with mode-independent traffic totals
(same prefixes revealed, same local hits, same verdicts).
"""

from __future__ import annotations

from repro.experiments.fleet import FleetConfig, FleetSimulator, fleet_table
from repro.experiments.scale import MEDIUM, get_context

#: The acceptance bar for the batched pipeline.
MIN_SPEEDUP = 10.0


def test_bench_fleet_throughput(benchmark, record_result, record_json):
    context = get_context(MEDIUM)
    # Warm the shared workload (corpus pool + blacklist snapshot) outside the
    # timed region, then time the batched fleet run itself.
    context.url_pool("alexa")
    scalar_report = FleetSimulator(
        MEDIUM, FleetConfig(mode="scalar"), context=context).run()
    batched_report = benchmark.pedantic(
        lambda: FleetSimulator(MEDIUM, FleetConfig(mode="batched"),
                               context=context).run(),
        rounds=1, iterations=1,
    )

    speedup = batched_report.urls_per_second / scalar_report.urls_per_second
    table = fleet_table(MEDIUM, context=context)
    table.add_note(f"benchmark run: scalar {scalar_report.urls_per_second:,.0f} URLs/s, "
                   f"batched {batched_report.urls_per_second:,.0f} URLs/s "
                   f"({speedup:.1f}x)")
    record_result("fleet_throughput", table.render())
    record_json("fleet_throughput", {
        "scale": MEDIUM.name,
        "clients": batched_report.clients,
        "urls_checked": batched_report.urls_checked,
        "scalar_urls_per_second": round(scalar_report.urls_per_second, 1),
        "batched_urls_per_second": round(batched_report.urls_per_second, 1),
        "speedup": round(speedup, 2),
        "transport": batched_report.transport,
        "server_cache_hit_rate": round(batched_report.server_cache_hit_rate, 4),
        "client_cache_hit_rate": round(batched_report.cache_hit_rate, 4),
        "server_full_hash_requests": batched_report.server_full_hash_requests,
        "log_entries_evicted": batched_report.log_entries_evicted,
        "min_speedup_bar": MIN_SPEEDUP,
    })

    # Coalescing may change how many requests carry the traffic, never what
    # the traffic reveals: the totals must match the scalar oracle exactly.
    assert batched_report.traffic_signature() == scalar_report.traffic_signature()
    assert speedup >= MIN_SPEEDUP, (
        f"batched fleet ran at {speedup:.1f}x the scalar path, expected "
        f">= {MIN_SPEEDUP}x"
    )
