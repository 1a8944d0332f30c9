"""Live list ingestion: stream mutations in while clients keep polling.

A real provider's blocklists are never finished — entries stream in from
crawlers and takedown feeds around the clock, while millions of clients
keep polling for updates and full hashes.  The repo-historical way to
change server state mid-run was stop-the-world: mutate the dicts, then
re-snapshot everything.  This module is the streaming path on top of the
durable storage layer (:mod:`repro.safebrowsing.storage`):

* mutations are queued as :class:`ListMutation` values and applied in
  **batches** (:meth:`IngestionPipeline.step`);
* each batch ends with one :meth:`ServerDatabase.commit` — pending
  mutations become protocol chunks and the storage journal is flushed in a
  single transaction, so the cost per batch is O(batch), never O(list);
* reads are **versioned**: lookups served from the in-memory working set
  are answered against a consistent :attr:`ServerDatabase.version` (every
  mutation bumps it, invalidating the server's response cache), and any
  reader attached to the SQLite file observes only
  :attr:`ServerDatabase.committed_version` — a half-applied batch is never
  visible, to anyone;
* there is **no stop-the-world**: the pipeline yields between batches, so
  client traffic interleaves with ingestion at batch granularity.
  ``benchmarks/bench_server_ingestion.py`` loads a paper-scale (Table
  1-sized) list and asserts lookup p99 during live ingestion stays within
  2x of idle p99.

The CLI front-end is ``python -m repro ingest`` and the measurement
harness :func:`repro.experiments.ingestion.run_ingestion`.
"""

from __future__ import annotations

import hashlib
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

from repro.exceptions import ProtocolError, StorageError
from repro.hashing.digests import FullHash
from repro.hashing.prefix import Prefix
from repro.observability.metrics import (
    SIZE_BOUNDS,
    MetricsRegistry,
    exported,
    registry_or_null,
)

#: Mutation actions an ingestion feed can carry, mirroring the mutators of
#: :class:`~repro.safebrowsing.database.ListDatabase` one to one.
MUTATION_ACTIONS = (
    "add-expression",
    "remove-expression",
    "add-full-hash",
    "add-orphan",
    "remove-orphan",
)

#: Default number of mutations applied (then committed) per pipeline step.
DEFAULT_BATCH_SIZE = 1000


@dataclass(frozen=True, slots=True)
class ListMutation:
    """One logical mutation of one list, as carried by an ingestion feed.

    Exactly one operand is required per action: ``expression`` for the
    expression actions, ``full_hash`` for ``add-full-hash``, ``prefix``
    for the orphan actions.
    """

    list_name: str
    action: str
    expression: str | None = None
    prefix: Prefix | None = None
    full_hash: FullHash | None = None

    def __post_init__(self) -> None:
        if self.action not in MUTATION_ACTIONS:
            raise StorageError(
                f"unknown ingestion action {self.action!r}; expected one of "
                f"{MUTATION_ACTIONS}")
        operand = {
            "add-expression": self.expression,
            "remove-expression": self.expression,
            "add-full-hash": self.full_hash,
            "add-orphan": self.prefix,
            "remove-orphan": self.prefix,
        }[self.action]
        if operand is None:
            raise StorageError(
                f"ingestion action {self.action!r} needs its operand "
                "(expression / full_hash / prefix)")


@dataclass(frozen=True, slots=True)
class IngestionProgress:
    """What one :meth:`IngestionPipeline.step` (or ``drain``) accomplished.

    ``committed_version`` is the database version readers are now
    guaranteed to observe; ``flushed_ops`` the journal ops the storage
    committed durably (0 for the memory backend).
    """

    applied: int
    batches: int
    queued: int
    version: int
    committed_version: int
    flushed_ops: int


@dataclass
class IngestStats:
    """What a pipeline has applied since its construction; registries
    export both fields (:meth:`MetricsRegistry.register_stats`)."""

    applied: int = exported("ingest_mutations_total",
                            "Mutations applied by the pipeline")
    batches: int = exported("ingest_batches_total",
                            "Non-empty ingestion batches committed")


class IngestionPipeline:
    """Batched, committed application of an ingestion feed to a server.

    ``target`` is a :class:`~repro.safebrowsing.database.ServerDatabase`
    or anything carrying one as ``.database`` (a
    :class:`~repro.safebrowsing.server.ServerCore`).  Mutations queue up
    via :meth:`submit`; each :meth:`step` applies at most ``batch_size``
    of them and ends with one atomic :meth:`ServerDatabase.commit`.
    Between steps the caller is free to serve traffic — that interleaving
    is the whole point, and what the ingestion benchmark measures.
    """

    def __init__(self, target, *, batch_size: int = DEFAULT_BATCH_SIZE,
                 metrics: MetricsRegistry | None = None) -> None:
        if batch_size < 1:
            raise StorageError("ingestion batch_size must be positive")
        self.database = getattr(target, "database", target)
        self.batch_size = batch_size
        self._queue: deque[ListMutation] = deque()
        self.stats = IngestStats()
        self.flushed_ops = 0
        metrics = registry_or_null(metrics)
        metrics.register_stats(self.stats)
        self._m_batch_size = metrics.histogram(
            "ingest_batch_size", "Mutations applied per non-empty batch",
            bounds=SIZE_BOUNDS)
        self._m_queue_depth = metrics.gauge(
            "ingest_queue_depth", "Mutations submitted but not yet applied")
        # Commit latency is instrumented at the ServerDatabase (the
        # storage_commit_* families); the pipeline only adds batch shape.

    @property
    def applied(self) -> int:
        """Mutations applied so far."""
        return self.stats.applied

    @property
    def batches(self) -> int:
        """Non-empty batches committed so far."""
        return self.stats.batches

    @property
    def queued(self) -> int:
        """Mutations submitted but not yet applied."""
        return len(self._queue)

    def submit(self, mutations: Iterable[ListMutation]) -> int:
        """Queue mutations for the next steps; returns the new queue depth."""
        self._queue.extend(mutations)
        return len(self._queue)

    def _apply(self, mutation: ListMutation) -> None:
        list_db = self.database[mutation.list_name]
        if mutation.action == "add-expression":
            list_db.add_expression(mutation.expression)
        elif mutation.action == "remove-expression":
            list_db.remove_expression(mutation.expression)
        elif mutation.action == "add-full-hash":
            list_db.add_full_hash(mutation.full_hash)
        elif mutation.action == "add-orphan":
            list_db.add_orphan_prefix(mutation.prefix)
        elif mutation.action == "remove-orphan":
            list_db.remove_orphan_prefix(mutation.prefix)
        else:  # pragma: no cover - constructor validates the action
            raise ProtocolError(f"unknown ingestion action {mutation.action!r}")

    def step(self) -> IngestionProgress:
        """Apply one batch and commit it atomically.

        Applies at most ``batch_size`` queued mutations, then runs one
        :meth:`ServerDatabase.commit`: pending prefixes become add/sub
        chunks (one chunk per list per batch, which is exactly the shape
        the v3 update protocol serves incrementally) and the storage
        journal flushes in a single transaction.  A step with an empty
        queue is a cheap no-op commit.
        """
        applied = 0
        while self._queue and applied < self.batch_size:
            self._apply(self._queue.popleft())
            applied += 1
        flushed = self.database.commit()
        self.stats.applied += applied
        self.flushed_ops += flushed
        if applied:
            self.stats.batches += 1
            self._m_batch_size.observe(applied)
        self._m_queue_depth.set(len(self._queue))
        return IngestionProgress(
            applied=applied, batches=self.batches, queued=len(self._queue),
            version=self.database.version,
            committed_version=self.database.committed_version,
            flushed_ops=flushed,
        )

    def drain(self) -> IngestionProgress:
        """Step until the queue is empty; returns the cumulative progress."""
        applied = 0
        flushed = 0
        while self._queue:
            progress = self.step()
            applied += progress.applied
            flushed += progress.flushed_ops
        return IngestionProgress(
            applied=applied, batches=self.batches, queued=0,
            version=self.database.version,
            committed_version=self.database.committed_version,
            flushed_ops=flushed,
        )


def synthetic_additions(list_name: str, count: int, *,
                        seed: int = 0, start: int = 0) -> list[ListMutation]:
    """A deterministic stream of ``add-expression`` mutations.

    The expressions are synthetic but well-formed canonical expressions
    (host + path), keyed by ``seed`` and a running index so repeated calls
    with a higher ``start`` continue the same stream without collisions.
    Used by the ingestion experiment and benchmark to reach paper-scale
    (Table 1) list sizes without a corpus.
    """
    if count < 0:
        raise StorageError("synthetic_additions count must be non-negative")
    mutations = []
    for index in range(start, start + count):
        tag = hashlib.sha256(f"{seed}:{index}".encode()).hexdigest()[:12]
        mutations.append(ListMutation(
            list_name=list_name, action="add-expression",
            expression=f"ingest-{tag}.example/entry/{index}"))
    return mutations
