#!/usr/bin/env python3
"""Persistence and warm start: snapshots, restored lookups, fleet churn.

Real Safe Browsing clients keep their prefix database on disk across
browser restarts and resync with incremental chunks — they never
re-download the lists from scratch.  This demo walks the reproduction's
persistence layer through exactly that story:

1. a client syncs, saves a **snapshot** (a SQLite file with a SHA-256
   checksum per list), and the provider's lists drift on;
2. a **cold** restart re-downloads everything, a **warm** restart restores
   the snapshot and fetches only the drift — compare the prefixes each one
   transfers;
3. the restore verifies the snapshot's checksums, then hands each list's
   packed prefix array to the store in one piece — the default ``numpy``
   backend reads it with a single ``frombuffer`` — so the restarted client
   answers its first URL straight away;
4. a churning **fleet** (``FleetConfig(churn_fraction=...,
   restart_interval=...)``) restarts clients mid-simulation and reports the
   sync bandwidth the snapshots absorbed.

Run with:  python examples/warm_start_demo.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.clock import ManualClock
from repro.experiments.fleet import FleetConfig, run_fleet
from repro.experiments.scale import SMALL
from repro.safebrowsing.client import ClientConfig, SafeBrowsingClient
from repro.safebrowsing.lists import GOOGLE_LISTS
from repro.safebrowsing.server import SafeBrowsingServer
from repro.safebrowsing.snapshot import inspect_snapshot

EXPRESSIONS = (
    "evil.example.com/malware/dropper.exe",
    "evil.example.com/",
    "phishy.example.net/login.html",
    "bad.actor.org/payload/",
)

DRIFT = tuple(f"drift-{index:02d}.threat.example/x" for index in range(5))


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="warm-start-demo-"))
    clock = ManualClock()
    server = SafeBrowsingServer(GOOGLE_LISTS, clock=clock)
    server.blacklist("goog-malware-shavar", EXPRESSIONS[:2])
    server.blacklist("googpub-phish-shavar", EXPRESSIONS[2:])

    print("=" * 72)
    print("1. Sync a client and snapshot its database")
    print("=" * 72)
    client = SafeBrowsingClient(server, name="laptop", clock=clock,
                                config=ClientConfig(store_backend="numpy"))
    client.update()
    print(f"synced prefixes        : {client.local_database_size()}")
    print(f"sync bandwidth (cold)  : "
          f"{client.stats.update_prefixes_received} prefixes")
    snapshot_path = client.save_snapshot(workdir / "laptop.snap")
    info = inspect_snapshot(snapshot_path)
    print(f"snapshot written       : {snapshot_path.name} "
          f"({info.payload_bytes} bytes, each list checksum verified)")
    print()

    print("=" * 72)
    print("2. The lists drift, then the browser restarts")
    print("=" * 72)
    server.blacklist("goog-malware-shavar", DRIFT)
    print(f"drift committed        : {len(DRIFT)} new expressions")

    cold = SafeBrowsingClient(server, name="laptop", clock=clock,
                              config=ClientConfig(store_backend="numpy"))
    cold.update()
    print(f"cold restart fetched   : "
          f"{cold.stats.update_prefixes_received} prefixes")

    warm = SafeBrowsingClient(server, name="laptop", clock=clock,
                              config=ClientConfig(store_backend="numpy"))
    resumed = warm.restore_snapshot(snapshot_path)
    warm.update()
    fetched = warm.stats.update_prefixes_received
    print(f"warm restart resumed   : {resumed} prefixes from the snapshot")
    print(f"warm restart fetched   : {fetched} prefixes (only the drift)")
    print(f"bandwidth saved        : {resumed}/{resumed + fetched} "
          f"prefixes served from disk")
    print()

    print("=" * 72)
    print("3. Lookups straight after the warm start")
    print("=" * 72)
    store = warm._lists["goog-malware-shavar"].store
    print(f"store backend          : {warm.config.store_backend} "
          f"({type(store).__name__})")
    print(f"prefixes in the store  : {len(store)} (snapshot + drift)")
    verdict = warm.lookup("http://evil.example.com/")
    print(f"lookup after restart   : {verdict.verdict.value} "
          f"(matched {verdict.matched_lists})")
    assert warm.lookup(f"http://{DRIFT[0]}").is_malicious
    print("drifted threat caught  : True")
    print()

    print("=" * 72)
    print("4. Fleet churn: restarts at fleet scale, warm vs cold")
    print("=" * 72)
    churn = dict(churn_fraction=0.5, restart_interval=2)
    warm_fleet = run_fleet(SMALL, FleetConfig(**churn, warm_start=True))
    cold_fleet = run_fleet(SMALL, FleetConfig(**churn, warm_start=False))
    print(f"client restarts        : {warm_fleet.client_restarts} per run")
    print(f"warm fleet sync traffic: "
          f"{warm_fleet.client_update_prefixes_received} prefixes "
          f"(+{warm_fleet.warm_start_prefixes_resumed} resumed from snapshots)")
    print(f"cold fleet sync traffic: "
          f"{cold_fleet.client_update_prefixes_received} prefixes")
    saved = (1 - warm_fleet.client_update_prefixes_received
             / cold_fleet.client_update_prefixes_received)
    print(f"churn bandwidth saved  : {saved:.0%}")
    same = warm_fleet.traffic_signature() == cold_fleet.traffic_signature()
    print(f"lookup traffic identical (persistence never changes verdicts): "
          f"{same}")


if __name__ == "__main__":
    main()
