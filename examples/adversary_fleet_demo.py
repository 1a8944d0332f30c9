#!/usr/bin/env python3
"""The streaming adversary: online tracking detection at fleet scale.

The paper's headline result is that the provider can re-identify and track
clients from the full-hash request log alone.  At fleet scale the log is a
*rotating window* (``max_log_entries``), so replaying it after the fact
under-counts; the adversary must instead keep up with the traffic.  This
demo shows both halves:

1. **The observer hook, by hand** — a ``TrackingSystem`` picks prefixes with
   Algorithm 1, a ``StreamingTrackingDetector`` attaches to the server's
   log-observer hook, and a client's visit is detected the moment its
   full-hash request is logged — even with a 1-entry request log.
2. **The fleet integration** — ``FleetConfig(adversary=True)`` plants
   tracked targets into the simulated clients' streams and scores the
   online detector against that ground truth: precision and recall are 1.0,
   in both execution modes, while the bounded log rotates underneath.

Run with:  python examples/adversary_fleet_demo.py
"""

from __future__ import annotations

from repro.analysis.inverted_index import PrefixInvertedIndex
from repro.analysis.streaming import StreamingTrackingDetector
from repro.analysis.tracking import TrackingSystem
from repro.clock import ManualClock
from repro.experiments.fleet import FleetConfig, run_fleet
from repro.experiments.scale import SMALL
from repro.safebrowsing.client import SafeBrowsingClient
from repro.safebrowsing.lists import GOOGLE_LISTS
from repro.safebrowsing.server import SafeBrowsingServer

TARGET = "https://petsymposium.org/2016/cfp.php"


def manual_walkthrough() -> None:
    print("=" * 72)
    print("1. The observer hook: detection outlives a 1-entry request log")
    print("=" * 72)

    index = PrefixInvertedIndex()
    index.add_urls([
        "https://petsymposium.org/",
        "https://petsymposium.org/2016/",
        TARGET,
    ])
    clock = ManualClock()
    # A deliberately tiny log: post-hoc analysis sees one entry, ever.
    server = SafeBrowsingServer(GOOGLE_LISTS, clock=clock, max_log_entries=1)
    tracker = TrackingSystem(server=server, index=index,
                             list_name="goog-malware-shavar")
    decision = tracker.track(TARGET)
    print(f"Algorithm 1: {decision.mode.value}, "
          f"{decision.prefix_count} prefixes pushed")

    detector = StreamingTrackingDetector()
    detector.watch(decision)
    detector.attach(server)

    client = SafeBrowsingClient(server, name="victim", clock=clock)
    client.update()
    for visit in range(3):
        clock.advance(3000)  # step past the client's full-hash cache
        client.update()
        client.lookup(TARGET)
    print(f"visits made        : 3")
    print(f"log entries kept   : {len(server.request_log)} "
          f"({server.stats.log_entries_evicted} rotated out)")
    print(f"streaming detections: {detector.detections} "
          f"(offline rescan of the live log would find "
          f"{len(tracker.detect(allow_rotated=True))})")
    print()


def fleet_adversary() -> None:
    print("=" * 72)
    print("2. The fleet: planted targets, scored against ground truth")
    print("=" * 72)

    for mode in ("scalar", "batched"):
        report = run_fleet(SMALL, FleetConfig(mode=mode, adversary=True))
        print(f"--- {mode} mode ---")
        print(f"  URLs checked     : {report.urls_checked}")
        print(f"  tracked targets  : {report.tracked_targets}")
        print(f"  detections       : {report.tracking_detections}")
        print(f"  detected pairs   : {report.tracking_detected_pairs}"
              f"/{report.tracking_true_pairs} planted")
        print(f"  precision        : {report.tracking_precision:.2f}")
        print(f"  recall           : {report.tracking_recall:.2f}")
    print()
    print("Same streams, same revealed prefixes: coalescing repackages the")
    print("requests, so the batched mode's detected (client, target) pairs")
    print("are identical to the scalar mode's.")


def main() -> None:
    manual_walkthrough()
    fleet_adversary()


if __name__ == "__main__":
    main()
