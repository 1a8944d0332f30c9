"""Process-parallel fleet engine: shard the fleet over worker processes.

The single-process :class:`~repro.experiments.fleet.FleetSimulator` tops out
around 10^3 clients per wall-clock-tolerable run; the ``LARGE``/``XLARGE``
scale tiers ask for 10^5–10^6.  This module fans a fleet out over N
``multiprocessing`` workers, each owning a *contiguous shard* of the global
client index space against one logical server, and merges the per-shard
:class:`~repro.experiments.fleet.FleetReport`\\ s hierarchically with the
exact :meth:`FleetReport.merge`.

**The server replica handoff.**  The parent process provisions the logical
server once — blacklists *and* the adversary's Algorithm 1 prefixes — on
the storage ``config.server_storage`` names, and hands it to the workers
as one SQLite file written by
:func:`~repro.safebrowsing.snapshot.save_server_snapshot` (a memory-backed
server is exported whole; a SQLite-backed one flushes its journal and
backs up).  Every worker attaches that file read-only, rebuilds an
observationally identical in-memory replica
(:func:`~repro.safebrowsing.snapshot.load_server`) onto its own
:class:`~repro.clock.ManualClock` and drives its shard against it.
Because every per-client seed (stream RNG, transport, policy, cookie,
profile assignment) is keyed by the *global* client index, a shard behaves
bit-for-bit as it would inside a monolithic run — the property suite pins
merged shard reports equal to the monolithic run on every counter, in
both storage modes.

**What is shard-local.**  Each worker owns a replica, so its response cache
and request log are shard-local: a monolithic run can serve client B from a
cache entry client A warmed, replicas cannot see each other's traffic.
Exact-counter comparisons therefore disable the response cache
(``server_cache_seconds=0`` increments neither hits nor misses); with the
cache on, the *traffic signature* (prefixes revealed, local hits, verdicts)
and the tracking-pair digest are still byte-identical — caching changes who
answers, never what is answered.  Churn draws are also shard-local, seeded
per shard via :func:`shard_seed` so shards don't all restart the same local
positions.

Workers use the ``fork`` start method where available (the parent's cached
:class:`~repro.experiments.scale.ExperimentContext` — corpora, pools — is
inherited copy-on-write), falling back to ``spawn`` elsewhere; every task
payload is a small picklable dataclass either way.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from repro.clock import ManualClock
from repro.exceptions import ExperimentError
from repro.experiments.fleet import (
    FleetConfig,
    FleetReport,
    FleetSimulator,
    _throughput,
)
from repro.experiments.scale import ExperimentContext, SMALL, Scale, get_context
from repro.reporting.tables import Table
from repro.safebrowsing.snapshot import load_server, save_server_snapshot


def default_worker_count() -> int:
    """Worker processes to use by default: the schedulable CPU count."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def shard_ranges(clients: int, shards: int) -> list[range]:
    """Partition ``range(clients)`` into ``shards`` contiguous, near-equal
    ranges (sizes differ by at most one; shards are clamped to clients)."""
    if clients < 1:
        raise ExperimentError("a fleet needs at least one client")
    if shards < 1:
        raise ExperimentError("shards must be positive")
    shards = min(shards, clients)
    base, extra = divmod(clients, shards)
    ranges: list[range] = []
    start = 0
    for shard_index in range(shards):
        size = base + (1 if shard_index < extra else 0)
        ranges.append(range(start, start + size))
        start += size
    return ranges


def shard_seed(fleet_seed: int, shard_index: int) -> int:
    """Deterministic per-shard seed derived from the fleet seed.

    Drives shard-*local* randomness (churn draws); per-client randomness
    stays keyed by global client index so shard boundaries never change
    client behaviour.
    """
    payload = f"fleet-shard:{fleet_seed}:{shard_index}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


@dataclass(frozen=True, slots=True)
class _ShardTask:
    """One worker's assignment: a client range against the server snapshot."""

    scale: Scale
    config: FleetConfig
    snapshot_path: str
    start: int
    stop: int
    shard_index: int


def _run_shard(task: _ShardTask) -> FleetReport:
    """Worker entry point: restore a server replica, run one client shard.

    Top-level (picklable under ``spawn``); under ``fork`` the parent's
    cached context is inherited, under ``spawn`` :func:`get_context`
    rebuilds it from the (picklable) scale.
    """
    context = get_context(task.scale)
    clock = ManualClock()
    server = load_server(
        task.snapshot_path, clock=clock,
        response_cache_seconds=task.config.server_cache_seconds,
        max_log_entries=task.config.max_log_entries,
    )
    simulator = FleetSimulator(
        task.scale, task.config, context=context,
        client_indices=range(task.start, task.stop),
        shard_seed=shard_seed(task.config.seed, task.shard_index),
    )
    return simulator.run(server=server, clock=clock)


def _merge_hierarchically(reports: list[FleetReport]) -> FleetReport:
    """Reduce shard reports pairwise, the way a worker tree would.

    :meth:`FleetReport.merge` is associative, so this equals one flat merge
    (pinned by unit test) while keeping every intermediate merge small.
    """
    while len(reports) > 1:
        reports = [FleetReport.merge(reports[index:index + 2])
                   for index in range(0, len(reports), 2)]
    return reports[0]


def _multiprocessing_context():
    """``fork`` where available (context inherited copy-on-write), else
    ``spawn``."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return multiprocessing.get_context("spawn")


def run_parallel_fleet(scale: Scale = SMALL,
                       config: FleetConfig | None = None, *,
                       workers: int | None = None,
                       shards: int | None = None,
                       context: ExperimentContext | None = None,
                       inline: bool = False) -> FleetReport:
    """Run one fleet sharded over worker processes; return the merged report.

    ``workers`` defaults to the schedulable CPU count; ``shards`` defaults
    to ``workers`` (contiguous, near-equal client ranges).  ``inline=True``
    runs every shard sequentially in this process through the identical
    shard code path — the deterministic harness the equivalence tests use,
    with no process-pool machinery in the loop.

    The merged report's ``elapsed_seconds``/``urls_per_second`` cover the
    whole engine run (provisioning, snapshot, fan-out, merge) — the honest
    wall clock a throughput comparison wants.  The per-shard max that
    :meth:`FleetReport.merge` computes is what they'd be without the
    engine's fixed overhead.
    """
    if config is None:
        config = FleetConfig()
    if workers is None:
        workers = default_worker_count()
    if workers < 1:
        raise ExperimentError("workers must be positive")
    if shards is None:
        shards = workers
    ranges = shard_ranges(scale.clients, shards)
    if context is None:
        context = get_context(scale)

    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="fleet-parallel-") as tmp:
        # Provision the one logical server — blacklists and adversary
        # prefixes — then hand it to the workers as a file.  The
        # provisioning clock is throwaway: replicas restore onto their own
        # clocks.
        provisioner = FleetSimulator(scale, config, context=context)
        server = provisioner.build_server(ManualClock())
        provisioner.provision_adversary(server)
        snapshot_path = save_server_snapshot(server,
                                             Path(tmp) / "server.sqlite")
        # No SQLite file descriptor may be shared across the worker forks.
        server.database.storage.close()

        tasks = [_ShardTask(scale=scale, config=config,
                            snapshot_path=str(snapshot_path),
                            start=shard.start, stop=shard.stop,
                            shard_index=shard_index)
                 for shard_index, shard in enumerate(ranges)]
        if inline:
            shard_reports = [_run_shard(task) for task in tasks]
        else:
            pool_context = _multiprocessing_context()
            with ProcessPoolExecutor(max_workers=min(workers, len(tasks)),
                                     mp_context=pool_context) as pool:
                shard_reports = list(pool.map(_run_shard, tasks))

    merged = _merge_hierarchically(shard_reports)
    elapsed = time.perf_counter() - started
    return replace(merged, elapsed_seconds=elapsed,
                   urls_per_second=_throughput(merged.urls_checked, elapsed),
                   workers=1 if inline else min(workers, len(tasks)))


def fleet_parallel_table(scale: Scale = SMALL,
                         config: FleetConfig | None = None, *,
                         workers: int = 2,
                         context: ExperimentContext | None = None) -> Table:
    """Single-process vs process-parallel comparison (``experiment
    fleet-parallel``): same fleet, same streams, merged accounting checked
    against the monolithic run's traffic signature."""
    base = config if config is not None else FleetConfig()
    base = replace(base, mode="batched")
    single = FleetSimulator(scale, base, context=context).run()
    parallel = run_parallel_fleet(scale, base, workers=workers,
                                  context=context)
    table = Table(
        title=(f"Process-parallel fleet ({scale.name} scale, "
               f"{single.clients} clients, {parallel.workers} workers)"),
        columns=["engine", "workers", "shards", "URLs", "URLs/s",
                 "full-hash reqs", "prefixes sent", "malicious"],
    )
    for label, report in (("single-process", single), ("parallel", parallel)):
        table.add_row(
            label,
            report.workers,
            report.shards,
            report.urls_checked,
            report.urls_per_second,
            report.server_full_hash_requests,
            report.server_prefixes_received,
            report.malicious_verdicts,
        )
    table.add_note("traffic signatures match: "
                   f"{single.traffic_signature() == parallel.traffic_signature()}")
    table.add_note(f"population profile: {parallel.profile}; "
                   f"server cache hit rate (merged): "
                   f"{parallel.server_cache_hit_rate:.2f}")
    table.add_note("merged counters are exact: summed across shards, ratios "
                   "recomputed, elapsed = engine wall clock")
    return table
