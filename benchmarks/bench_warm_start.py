"""Benchmark: warm-start sync bandwidth.

**Cold vs warm client sync** at MEDIUM scale, on the ``raw`` store
backend — a fresh client downloads the provider's full chunk history; a
client restored from a snapshot fetches only the chunks committed after the
snapshot was taken.  The acceptance bar is *strict*: the warm start must
transfer less update bandwidth (prefixes carried by chunks) than the cold
start.

Results are written to ``benchmarks/results/BENCH_warm_start.json``
(schema documented in ``docs/benchmarks.md``).
"""

from __future__ import annotations

import time

from repro.clock import ManualClock
from repro.experiments.scale import MEDIUM, get_context
from repro.safebrowsing.client import ClientConfig, SafeBrowsingClient
from repro.safebrowsing.lists import ListProvider

#: Chunks committed between the snapshot and the restart (list drift).
DRIFT_EXPRESSIONS = 25

#: Client store backend of both the cold and the warm client.
STORE_BACKEND = "raw"


def test_bench_warm_start(benchmark, record_json, tmp_path):
    context = get_context(MEDIUM)
    server = context.provision_server(ListProvider.GOOGLE, clock=ManualClock())

    # -- cold start: a fresh client syncs the whole chunk history ----------
    cold_client = SafeBrowsingClient(
        server, name="cold", config=ClientConfig(store_backend=STORE_BACKEND))
    cold_started = time.perf_counter()
    cold_client.update()
    cold_seconds = time.perf_counter() - cold_started
    cold_prefixes = cold_client.stats.update_prefixes_received
    cold_chunks = cold_client.stats.chunks_received

    # -- snapshot, then let the lists drift --------------------------------
    snapshot_path = cold_client.save_snapshot(tmp_path / "client.snap")
    drift = [f"drift-{index:04d}.threat.example/payload"
             for index in range(DRIFT_EXPRESSIONS)]
    server.blacklist("goog-malware-shavar", drift)

    # -- warm start: restore + incremental resync (the timed region) -------
    def warm_start():
        client = SafeBrowsingClient(
            server, name="warm",
            config=ClientConfig(store_backend=STORE_BACKEND))
        client.restore_snapshot(snapshot_path)
        client.update()
        return client

    warm_started = time.perf_counter()
    warm_client = benchmark.pedantic(warm_start, rounds=1, iterations=1)
    warm_seconds = time.perf_counter() - warm_started
    warm_prefixes = warm_client.stats.update_prefixes_received
    warm_chunks = warm_client.stats.chunks_received
    assert warm_client.local_database_size() == cold_prefixes + DRIFT_EXPRESSIONS

    blacklist_prefixes = len({prefix for list_db in server.database
                              for prefix in list_db.prefixes()})

    saved_fraction = (1.0 - warm_prefixes / cold_prefixes
                      if cold_prefixes else 0.0)
    record_json("warm_start", {
        "scale": MEDIUM.name,
        "store_backend": STORE_BACKEND,
        "blacklist_prefixes": blacklist_prefixes,
        "drift_expressions": DRIFT_EXPRESSIONS,
        "cold_sync": {
            "seconds": round(cold_seconds, 4),
            "chunks": cold_chunks,
            "prefixes_transferred": cold_prefixes,
        },
        "warm_sync": {
            "seconds": round(warm_seconds, 4),
            "chunks": warm_chunks,
            "prefixes_transferred": warm_prefixes,
            "snapshot_bytes": snapshot_path.stat().st_size,
        },
        "bandwidth_saved_fraction": round(saved_fraction, 4),
    })

    # The acceptance bar: a warm start must transfer strictly less update
    # bandwidth than a cold start (it already holds the snapshot's chunks).
    assert warm_prefixes < cold_prefixes, (
        f"warm start transferred {warm_prefixes} prefixes, cold start "
        f"{cold_prefixes} — the snapshot saved nothing"
    )
    assert warm_prefixes == DRIFT_EXPRESSIONS  # exactly the drift, no more
