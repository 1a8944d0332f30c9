#!/usr/bin/env python3
"""The fleet over a simulated network: the transport layer in action.

The client never talks to the server directly — everything crosses a
``Transport``.  This demo contrasts the two built-in transports:

1. ``InProcessTransport`` — direct dispatch into the server's endpoint
   handlers.  Zero latency, never fails; byte-for-byte the behaviour of
   calling the server's methods yourself.
2. ``SimulatedNetworkTransport`` — a seeded network model.  Every delivery
   advances the fleet's shared logical clock by a latency sample, and an
   optional failure rate makes deliveries raise ``TransportError``, which
   the clients absorb through their update backoff and the fleet survives.

Because latency moves the shared clock, the networked fleet's update polls
drift apart and its full-hash caches age mid-run — the request log the
provider records shows the skew of a real deployment instead of the perfect
synchrony of a direct-call simulation.

Run with:  python examples/network_fleet_demo.py
"""

from __future__ import annotations

from repro.experiments.fleet import FleetConfig, run_fleet
from repro.experiments.scale import SMALL


def show(report, label: str) -> None:
    print(f"--- {label} ---")
    print(f"  transport        : {report.transport}")
    print(f"  URLs checked     : {report.urls_checked}")
    print(f"  full-hash reqs   : {report.server_full_hash_requests}")
    print(f"  server cache rate: {report.server_cache_hit_rate:.2f}")
    print(f"  network failures : {report.transport_failures}")
    print()


def main() -> None:
    print("=" * 72)
    print("Fleet over both transports (SMALL scale, identical URL streams)")
    print("=" * 72)

    in_process = run_fleet(SMALL, FleetConfig(transport="in-process"))
    show(in_process, "in-process (the reference)")

    networked = run_fleet(SMALL, FleetConfig(
        transport="simulated",
        latency_seconds=0.05,        # 50 ms per delivery on the shared clock
        latency_jitter_seconds=0.02,
        failure_rate=0.01,           # 1% of deliveries fail
    ))
    show(networked, "simulated network (50ms +/- jitter, 1% failures)")

    print("Same streams, same verdict semantics — but the network run's")
    print("latency moved the shared clock, so schedules and cache expiries")
    print("drift exactly as a deployed fleet's would.")


if __name__ == "__main__":
    main()
