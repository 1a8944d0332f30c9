"""Live-ingestion experiment: clients keep polling while lists grow.

The measurement harness behind ``python -m repro ingest`` (and the CI
ingestion smoke): one server — durable storage backend of your choice —
takes a stream of list mutations through the
:class:`~repro.safebrowsing.ingest.IngestionPipeline` while a handful of
clients keep checking URLs through a real transport.  It verifies, online,
the three guarantees the ingestion pipeline makes:

* **versioned reads** — after every batch the database's
  ``committed_version`` equals its ``version`` (the commit was atomic),
  and the committed version never moves backwards;
* **no stop-the-world** — client lookups interleave with ingestion
  batches and keep answering; newly ingested entries become malicious
  verdicts as soon as the client's next poll picks up the batch chunk;
* **convergence** — when the stream drains, a final client update brings
  every client's local prefix count to exactly the server's.

This module needs no numpy (plain protocol traffic), so the smoke runs on
the numpy-absent CI leg too.  The latency measurement lives in
``benchmarks/bench_server_ingestion.py``, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from repro.clock import ManualClock
from repro.exceptions import ExperimentError
from repro.observability.metrics import MetricsRegistry
from repro.observability.quantiles import percentile
from repro.safebrowsing.client import ClientConfig, SafeBrowsingClient
from repro.safebrowsing.ingest import IngestionPipeline, synthetic_additions
from repro.safebrowsing.lists import GOOGLE_LISTS
from repro.safebrowsing.protocol import Verdict
from repro.safebrowsing.server import SafeBrowsingServer
from repro.safebrowsing.storage import STORAGE_KINDS
from repro.safebrowsing.transport import LOCAL_TRANSPORT_KINDS, build_transport
from repro.reporting.tables import Table


@dataclass(frozen=True, slots=True)
class IngestionReport:
    """Everything one :func:`run_ingestion` run measured and verified."""

    storage: str
    transport: str
    initial_entries: int
    live_entries: int
    batch_size: int
    batches: int
    clients: int
    flushed_ops: int
    final_version: int
    final_committed_version: int
    lookups: int
    malicious_verdicts: int
    ingested_hits: int
    update_polls: int
    client_prefixes: int
    server_prefixes: int
    #: Wall-clock latency distribution of the live commits, summarized by
    #: the shared :func:`repro.observability.quantiles.percentile` (lower
    #: nearest-rank, the benchmark convention).  ``0.0`` for runs with no
    #: live batches.
    commit_p50_seconds: float = 0.0
    commit_p99_seconds: float = 0.0

    @property
    def converged(self) -> bool:
        """Whether every client ended bit-identical to the server's lists."""
        return self.client_prefixes == self.server_prefixes * self.clients


def run_ingestion(*, storage: str = "sqlite", storage_path=None,
                  transport: str = "in-process",
                  initial: int = 2000, live: int = 1000,
                  batch_size: int = 250, clients: int = 3,
                  latency_seconds: float = 0.0,
                  seed: int = 7,
                  metrics: MetricsRegistry | None = None,
                  progress_every: int = 0,
                  progress_sink: Callable[[str], None] | None = None
                  ) -> IngestionReport:
    """Run the live-ingestion scenario and verify its guarantees.

    ``initial`` entries are ingested before any client connects (the
    bootstrap load), then ``live`` more stream in while ``clients``
    clients poll and look up URLs between batches.  Raises
    :class:`ExperimentError` if any pipeline guarantee is violated —
    a torn committed version, a regressing version, or clients failing
    to converge on the final list.

    ``metrics`` instruments the whole stack (pipeline, storage, server,
    transport, clients) into one registry.  ``progress_every=N`` emits a
    progress line through ``progress_sink`` (default :func:`print`) every
    N live batches — the periodic heartbeat of ``python -m repro ingest``.
    """
    if storage not in STORAGE_KINDS:
        raise ExperimentError(
            f"unknown storage backend {storage!r}; expected one of "
            f"{STORAGE_KINDS}")
    if transport not in LOCAL_TRANSPORT_KINDS:
        # The server lives in this process by design, so a transport that
        # needs a network address is rejected before any bootstrap work.
        raise ExperimentError(
            f"unsupported ingestion transport {transport!r}; expected one of "
            f"{LOCAL_TRANSPORT_KINDS}")
    if progress_every < 0:
        raise ExperimentError("progress_every must be non-negative")
    emit = progress_sink if progress_sink is not None else print
    clock = ManualClock()
    list_name = GOOGLE_LISTS[0].name
    server = SafeBrowsingServer(GOOGLE_LISTS[:1], clock=clock,
                                storage=storage, storage_path=storage_path,
                                metrics=metrics)
    pipeline = IngestionPipeline(server, batch_size=batch_size,
                                 metrics=metrics)

    # Bootstrap load, batched and committed like any other ingestion.
    pipeline.submit(synthetic_additions(list_name, initial, seed=seed))
    pipeline.drain()

    wire = build_transport(transport, server, clock=clock,
                           latency_seconds=latency_seconds, seed=seed,
                           metrics=metrics)
    config = ClientConfig(auto_update=False)
    fleet = [SafeBrowsingClient(transport=wire, name=f"ingest-{index}",
                                lists=[list_name], clock=clock, config=config,
                                metrics=metrics)
             for index in range(clients)]
    for client in fleet:
        client.update()

    # Live stream: clients look up a window of recently ingested URLs (plus
    # a clean miss) between batches, then poll — entries become verdicts at
    # batch granularity, never mid-batch.
    pipeline.submit(synthetic_additions(list_name, live, seed=seed,
                                        start=initial))
    lookups = 0
    malicious = 0
    ingested_hits = 0
    update_polls = clients
    last_committed = server.database.committed_version
    batch_start = initial
    commit_latencies: list[float] = []
    live_batches = 0
    while pipeline.queued:
        commit_started = perf_counter()
        progress = pipeline.step()
        commit_latencies.append(perf_counter() - commit_started)
        live_batches += 1
        if progress_every and live_batches % progress_every == 0:
            emit(f"ingest: batch {live_batches}, applied {pipeline.applied}, "
                 f"queued {progress.queued}, "
                 f"committed v{progress.committed_version}, "
                 f"commit lag {commit_latencies[-1] * 1e3:.2f} ms")
        if progress.committed_version != progress.version:
            raise ExperimentError(
                "torn commit: committed_version "
                f"{progress.committed_version} != version {progress.version}")
        if progress.committed_version < last_committed:
            raise ExperimentError("committed_version moved backwards")
        last_committed = progress.committed_version
        clock.advance(1.0)
        probe = [
            f"http://{m.expression}" for m in synthetic_additions(
                list_name, min(progress.applied, 5), seed=seed,
                start=batch_start)
        ] + [f"http://clean-{batch_start}.example/ok"]
        batch_start += progress.applied
        for client in fleet:
            client.update()
            update_polls += 1
            for result in client.check_urls(probe):
                lookups += 1
                if result.verdict is Verdict.MALICIOUS:
                    malicious += 1
                    if not result.url.startswith("http://clean-"):
                        ingested_hits += 1

    for client in fleet:
        client.update()
        update_polls += 1
    server_prefixes = server.database[list_name].prefix_count()
    client_prefixes = sum(client.local_database_size() for client in fleet)
    report = IngestionReport(
        storage=storage, transport=transport,
        initial_entries=initial, live_entries=live, batch_size=batch_size,
        batches=pipeline.batches, clients=clients,
        flushed_ops=pipeline.flushed_ops,
        final_version=server.database.version,
        final_committed_version=server.database.committed_version,
        lookups=lookups, malicious_verdicts=malicious,
        ingested_hits=ingested_hits, update_polls=update_polls,
        client_prefixes=client_prefixes, server_prefixes=server_prefixes,
        commit_p50_seconds=(percentile(commit_latencies, 0.50)
                            if commit_latencies else 0.0),
        commit_p99_seconds=(percentile(commit_latencies, 0.99)
                            if commit_latencies else 0.0),
    )
    server.database.storage.close()
    if not report.converged:
        raise ExperimentError(
            f"clients did not converge: {client_prefixes} client prefixes "
            f"vs {server_prefixes} server prefixes x {clients} clients")
    return report


def ingestion_table(**kwargs) -> Table:
    """Render :func:`run_ingestion` as a table (the CLI experiment view)."""
    report = run_ingestion(**kwargs)
    table = Table(
        title=f"Live ingestion ({report.storage} storage, "
              f"{report.transport} transport)",
        columns=("metric", "value"),
    )
    rows = [
        ("initial entries", report.initial_entries),
        ("live entries", report.live_entries),
        ("batch size", report.batch_size),
        ("batches committed", report.batches),
        ("journal ops flushed", report.flushed_ops),
        ("final version", report.final_version),
        ("committed version", report.final_committed_version),
        ("clients", report.clients),
        ("update polls", report.update_polls),
        ("lookups during ingest", report.lookups),
        ("malicious verdicts", report.malicious_verdicts),
        ("ingested-entry hits", report.ingested_hits),
        ("server prefixes", report.server_prefixes),
        ("commit p50 (ms)", report.commit_p50_seconds * 1e3),
        ("commit p99 (ms)", report.commit_p99_seconds * 1e3),
        ("converged", "yes" if report.converged else "NO"),
    ]
    for metric, value in rows:
        table.add_row(metric, value)
    return table
