#!/usr/bin/env python3
"""Quickstart: batched lookups and the fleet traffic simulator.

This example shows the two layers this repo uses to push Safe Browsing
workloads toward the paper's scale:

1. ``SafeBrowsingClient.check_urls`` — the batched lookup path.  A page load
   produces a burst of URL checks; the batched path canonicalizes, hashes
   and probes the local stores batch-wide and coalesces all the uncached
   full-hash lookups into one request, while returning exactly the verdicts
   the scalar ``check_url`` oracle would.
2. ``FleetSimulator`` — N clients on one shared logical clock, each with a
   deterministic revisit-heavy URL stream, hammering one in-memory server.
   Its report compares the scalar and batched modes' throughput and checks
   that they reveal identical traffic to the provider.

Run with:  python examples/fleet_demo.py
"""

from __future__ import annotations

from repro import ManualClock, SafeBrowsingClient, SafeBrowsingServer, GOOGLE_LISTS
from repro.safebrowsing.client import ClientConfig
from repro.experiments.fleet import FleetConfig, fleet_table
from repro.experiments.scale import SMALL


def batched_lookup_demo() -> None:
    print("=" * 72)
    print("Step 1: one batched check over a page-load burst of URLs")
    print("=" * 72)
    clock = ManualClock()
    server = SafeBrowsingServer(GOOGLE_LISTS, clock=clock)
    server.blacklist("goog-malware-shavar",
                     ["evil.example.com/", "evil.example.com/malware/dropper.exe"])

    client = SafeBrowsingClient(server, name="fleet-demo-browser", clock=clock,
                                config=ClientConfig(store_backend="raw"))
    client.update()

    batch = [
        "http://evil.example.com/malware/dropper.exe",
        "http://news.example.org/today.html",
        "http://evil.example.com/another/page.html",
        "http://news.example.org/today.html",           # a revisit
    ]
    results = client.check_urls(batch)
    for result in results:
        flag = "MALICIOUS" if result.is_malicious else "safe     "
        print(f"  [{flag}] {result.url}"
              + (f"  (prefixes sent: {len(result.sent_prefixes)})"
                 if result.contacted_server else ""))
    print(f"\nfull-hash requests sent for the whole batch: "
          f"{server.stats.full_hash_requests} (coalesced)\n")


def fleet_demo() -> None:
    print("=" * 72)
    print("Step 2: a fleet of clients on one shared clock (SMALL scale)")
    print("=" * 72)
    table = fleet_table(SMALL, FleetConfig())
    print(table.render())
    print()
    print("The scalar row is the per-URL oracle; the batched row runs the same")
    print("streams through check_urls(). Traffic signatures matching means both")
    print("modes revealed exactly the same prefixes to the provider.")


def main() -> None:
    batched_lookup_demo()
    fleet_demo()


if __name__ == "__main__":
    main()
