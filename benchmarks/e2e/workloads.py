"""The four workloads of the end-to-end benchmark, with their oracles.

Each workload builds its system from scratch (:meth:`Workload.setup`), then
drives it for a fixed wall-clock budget split into :data:`SEGMENTS` timed
slices (:meth:`Workload.run`).  After every slice, outside the timed
region, the outputs the slice collected are checked against an oracle and
dropped; a mismatch raises :class:`OracleError`.  Inputs are generated
lazily from the workload's seed, so the same seed gives the same inputs
however many of them a run gets through.

Sizes are targets for a 2-core machine.  A test may shrink them through the
constructor keywords; the benchmark never does.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from time import perf_counter, sleep

import numpy as np

from repro.clock import ManualClock
from repro.exceptions import ReproError
from repro.experiments.fleet import DEFAULT_FLEET_LOG_BOUND
from repro.experiments.scale import MEDIUM, ExperimentContext, Scale
from repro.hashing.digests import FullHash
from repro.hashing.prefix import Prefix
from repro.observability.quantiles import percentile
from repro.safebrowsing.chunks import ChunkRange
from repro.safebrowsing.client import ClientConfig, SafeBrowsingClient
from repro.safebrowsing.cookie import CookieJar
from repro.safebrowsing.httptransport import HttpTransport
from repro.safebrowsing.ingest import IngestionPipeline, synthetic_additions
from repro.safebrowsing.lists import GOOGLE_LISTS, ListProvider
from repro.safebrowsing.netservice import ServiceThread
from repro.safebrowsing.protocol import (
    FullHashRequest,
    ListState,
    UpdateRequest,
    Verdict,
)
from repro.safebrowsing.server import SafeBrowsingServer
from repro.urls.canonicalize import canonicalize
from repro.urls.decompose import API_POLICY, decompositions

import tracing

#: Timed slices per run; the outputs of each are checked between slices.
SEGMENTS = 10
#: Rates and latencies are taken per window of this many seconds.
WINDOW_S = 0.1
#: The window quantile the gated timings report.  Other tenants of a shared
#: host only ever slow a window down, so the fast decile of windows
#: estimates the system's own speed; the pooled percentiles, which include
#: those slowdowns, are reported beside it.
FAST = 0.9
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Items of each input stream hashed into a run's input digest.
DIGEST_ITEMS = 64

PROVIDER = ListProvider.GOOGLE


class OracleError(Exception):
    """An output of the system under test differs from the oracle's."""


@dataclass
class System:
    """Everything one set-up built; :meth:`close` releases it."""

    clock: ManualClock
    server: SafeBrowsingServer
    clients: list[SafeBrowsingClient] = field(default_factory=list)
    transports: list = field(default_factory=list)
    service: ServiceThread | None = None
    pipeline: IngestionPipeline | None = None
    pool: tuple[str, ...] = ()
    ground_truth: dict[str, list[str]] = field(default_factory=dict)

    def close(self) -> None:
        for transport in self.transports:
            if isinstance(transport, HttpTransport):
                transport.close()
        if self.service is not None:
            self.service.stop()
        self.server.database.storage.close()


@dataclass
class Loop:
    """What one timed run of a workload measured.

    Besides totals, the loop keeps the rate of every :data:`WINDOW_S`
    window and marks where each window's latency samples end, so that the
    gated metrics can be taken from the fast side of the windows.
    """

    ops: int = 0
    failed: int = 0
    #: Wall seconds inside the timed slices.
    busy_s: float = 0.0
    #: Part of ``busy_s`` an open-loop generator spent waiting for due times.
    idle_s: float = 0.0
    window_rates: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    #: ``len(latencies_s)`` at the end of each window.
    window_marks: list[int] = field(default_factory=list)
    #: Open-loop lateness: how long after its due time each request was sent.
    late_s: list[float] = field(default_factory=list)
    #: Workload-specific end-to-end values, reported beside the gated ones.
    extras: dict[str, float] = field(default_factory=dict)
    #: Records spans inside the timed slices only, when the run is traced.
    recorder: tracing.SpanRecorder | None = None

    @property
    def attempted(self) -> int:
        return self.ops + self.failed

    def tracing(self, active: bool) -> None:
        if self.recorder is not None:
            self.recorder.active = active

    def timed(self, seconds: float, step, verify) -> None:
        """Call ``step`` until each slice of ``seconds`` ends, then ``verify``.

        ``step`` returns the operations it completed.  ``verify`` runs
        between slices, outside the timed region.
        """
        for _ in range(SEGMENTS):
            self.tracing(True)
            start = window = perf_counter()
            deadline = start + seconds / SEGMENTS
            ops = 0
            while True:
                ops += step()
                now = perf_counter()
                # The slice's last window closes early, unless it is too
                # short to rate.
                if now - window >= (WINDOW_S / 2 if now >= deadline else WINDOW_S):
                    self.window_rates.append(ops / (now - window))
                    self.window_marks.append(len(self.latencies_s))
                    self.ops += ops
                    ops = 0
                    window = now
                if now >= deadline:
                    break
            self.tracing(False)
            self.ops += ops
            self.busy_s += now - start
            verify()

    def rate(self) -> float:
        """Operations per second in the fast decile of windows."""
        return percentile(self.window_rates, FAST)

    def latency_s(self) -> float:
        """Median latency of one operation in the fast decile of windows."""
        medians = []
        begin = 0
        for end in self.window_marks:
            if end > begin:
                medians.append(statistics.median(self.latencies_s[begin:end]))
            begin = end
        return percentile(medians, 1.0 - FAST)


def _digest(items) -> str:
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode("utf-8"))
    return digest.hexdigest()


def _failure(exc: ReproError, failures: list[str]) -> None:
    """Keep the first few failure messages for the run's report."""
    if len(failures) < 5:
        failures.append(f"{type(exc).__name__}: {exc}")


def _check_verdicts(urls: list[str], results: list, expected: list[bool]) -> None:
    """Raise unless ``results`` answer ``urls`` with the expected verdicts."""
    if len(results) != len(urls):
        raise OracleError(f"{len(urls)} URLs checked, {len(results)} verdicts returned")
    for url, result, malicious in zip(urls, results, expected):
        if result.url != url or (result.verdict is Verdict.MALICIOUS) != malicious:
            raise OracleError(f"{url}: verdict {result.verdict.name}, expected "
                              f"{'MALICIOUS' if malicious else 'SAFE'}")


class Workload:
    """One traffic shape: set-up, a timed loop with oracles, public counters."""

    name = ""

    def __init__(self, seed: int, *, scale: Scale = MEDIUM) -> None:
        self.seed = seed
        self.scale = scale
        self.failures: list[str] = []

    def setup(self) -> System:
        raise NotImplementedError

    def inputs(self, system: System) -> Iterator:
        """A fresh iterator over the workload's generated inputs."""
        raise NotImplementedError

    def run(self, system: System, seconds: float, recorder=None) -> Loop:
        """Drive ``system`` for ``seconds``; ``recorder`` traces the slices."""
        raise NotImplementedError

    def finish(self, system: System) -> None:
        """End-of-run oracle (after the timed loop)."""

    def inputs_digest(self, system: System) -> str:
        return _digest(islice(self.inputs(system), DIGEST_ITEMS))

    def _context(self) -> ExperimentContext:
        # A private context, not get_context(): every set-up repetition
        # must rebuild the corpus and the snapshot instead of reusing them.
        return ExperimentContext(self.scale)


# -- browse / crawl --------------------------------------------------------


class PageLoads(Workload):
    """Clients checking page loads of URLs in batches, in process."""

    clients = 8
    batch_size = 125
    round_seconds = 120.0
    working_set = 40
    zipf_exponent = 1.1
    malicious_pool = 25
    #: (share of URLs revisiting the working set, share blacklisted).
    revisit = 0.0
    blacklisted = 0.03

    def __init__(self, seed: int, *, scale: Scale = MEDIUM,
                 clients: int | None = None) -> None:
        super().__init__(seed, scale=scale)
        if clients is not None:
            self.clients = clients
        self._truth: dict[str, bool] = {}

    def setup(self) -> System:
        context = self._context()
        pool = context.url_pool("alexa")
        ground_truth = context.snapshot(PROVIDER).ground_truth
        clock = ManualClock()
        server = context.provision_server(PROVIDER, clock=clock,
                                          max_log_entries=DEFAULT_FLEET_LOG_BOUND)
        config = ClientConfig(update_jitter_fraction=0.1)
        clients = [SafeBrowsingClient(server, name=f"e2e-client-{index:03d}",
                                      clock=clock, config=config)
                   for index in range(self.clients)]
        for client in clients:
            client.update()
        return System(clock=clock, server=server, clients=clients,
                      transports=[client.transport for client in clients],
                      pool=pool, ground_truth=ground_truth)

    def _batches(self, index: int, table: tuple[str, ...],
                 pool_size: int) -> Iterator[list[str]]:
        """Client ``index``'s page loads over ``table`` (the corpus pool,
        then the blacklisted URLs), drawn 64 batches at a time."""
        rng = np.random.default_rng([self.seed, index])
        blacklist = np.arange(pool_size, len(table))
        if self.revisit:
            working = rng.choice(pool_size, size=self.working_set, replace=False)
            weights = np.arange(1, self.working_set + 1, dtype=float) ** -self.zipf_exponent
            weights /= weights.sum()
            blacklist = rng.choice(blacklist, size=self.malicious_pool, replace=False)
        size = 64 * self.batch_size
        while True:
            draws = rng.random(size)
            picks = rng.integers(0, pool_size, size)
            bad = rng.choice(blacklist, size=size)
            picks = np.where(draws < self.revisit + self.blacklisted, bad, picks)
            if self.revisit:
                revisits = rng.choice(working, size=size, p=weights)
                picks = np.where(draws < self.revisit, revisits, picks)
            urls = [table[pick] for pick in picks.tolist()]
            for start in range(0, size, self.batch_size):
                yield urls[start:start + self.batch_size]

    def inputs(self, system: System) -> Iterator[list[list[str]]]:
        """One page batch per client per round."""
        table = system.pool + tuple(f"http://{expression}"
                                    for expressions in system.ground_truth.values()
                                    for expression in expressions)
        streams = [self._batches(index, table, len(system.pool))
                   for index in range(self.clients)]
        while True:
            yield [next(stream) for stream in streams]

    def run(self, system: System, seconds: float, recorder=None) -> Loop:
        loop = Loop(recorder=recorder)
        blacklisted = {expression for expressions in system.ground_truth.values()
                       for expression in expressions}
        checked: list[tuple[list[str], list]] = []
        rounds = self.inputs(system)
        pending: deque[tuple[SafeBrowsingClient, list[str]]] = deque()

        def step() -> int:
            if not pending:
                # A new round: every client loads one page batch.
                system.clock.advance(self.round_seconds)
                pending.extend(zip(system.clients, next(rounds)))
            client, batch = pending.popleft()
            start = perf_counter()
            try:
                results = client.check_urls(batch)
            except ReproError as exc:
                loop.failed += len(batch)
                _failure(exc, self.failures)
                return 0
            loop.latencies_s.append(perf_counter() - start)
            checked.append((batch, results))
            return len(batch)

        def verify() -> None:
            for batch, results in checked:
                _check_verdicts(batch, results, [self._malicious(url, blacklisted)
                                                 for url in batch])
            checked.clear()

        loop.timed(seconds, step, verify)
        return loop

    def _malicious(self, url: str, blacklisted: set[str]) -> bool:
        """Ground truth: one of the URL's decompositions is blacklisted."""
        truth = self._truth.get(url)
        if truth is None:
            expressions = decompositions(canonicalize(url), policy=API_POLICY,
                                         canonical=True)
            truth = self._truth[url] = any(expression in blacklisted
                                           for expression in expressions)
        return truth


class Browse(PageLoads):
    """Revisit-heavy, Alexa-shaped browsing: 95% of URLs revisit a 40-URL
    Zipf working set, so the client's memos do most of the work and the URL
    and hash layers little; an optimisation to those should not move it."""

    name = "browse"
    revisit = 0.95


class Crawl(PageLoads):
    """Uniform draws over the corpus and no working set: plan-cache misses
    put canonicalize, decompose and hash on the critical path (the
    counterpart of :class:`Browse`)."""

    name = "crawl"


# -- gethash-http ------------------------------------------------------------


class GethashHttp(Workload):
    """Provider traffic over one kept-alive HTTP connection to the service.

    The server core, database match, wire codec and HTTP service do the
    work and the client layers are bypassed.  Small gethash frames and
    large downloads frames use the codec in two different ways.
    """

    name = "gethash-http"

    request_seconds = 0.1
    #: Requests per block of 100, in a seeded order: (gethash, poll, cold).
    mix = (95, 4, 1)
    zipf_exponent = 1.1
    dummies_per_prefix = 4
    open_loop_rate = 500.0

    def setup(self) -> System:
        context = self._context()
        ground_truth = context.snapshot(PROVIDER).ground_truth
        clock = ManualClock()
        server = context.provision_server(PROVIDER, clock=clock,
                                          max_log_entries=DEFAULT_FLEET_LOG_BOUND)
        service = ServiceThread(server).start()
        transport = HttpTransport(service.address, server=server)
        return System(clock=clock, server=server, transports=[transport],
                      service=service, ground_truth=ground_truth)

    def inputs(self, system: System) -> Iterator[tuple[str, tuple[Prefix, ...]]]:
        """``(kind, prefixes)`` per request; prefixes only for gethash.

        Each gethash carries 1-3 list members drawn by Zipf popularity; half
        of them also carry random prefixes, as the ``dummy`` privacy policy
        sends, so cached repeats and never-repeating batches both occur.
        """
        rng = np.random.default_rng([self.seed, 0x6E7])
        members = sorted({FullHash.of(expression).prefix()
                          for expressions in system.ground_truth.values()
                          for expression in expressions},
                         key=lambda prefix: prefix.value)
        members = [members[index] for index in rng.permutation(len(members))]
        weights = np.arange(1, len(members) + 1, dtype=float) ** -self.zipf_exponent
        weights /= weights.sum()
        kinds = ["gethash"] * self.mix[0] + ["poll"] * self.mix[1] + ["cold"] * self.mix[2]

        def requests():
            gethash = self.mix[0]
            while True:
                # One block of 100 requests, every draw made up front:
                # positions below ``gethash`` are the gethash requests.
                counts = rng.integers(1, 4, gethash).tolist()
                padded = (rng.random(gethash) < 0.5).tolist()
                ranks = iter(rng.choice(len(members), size=sum(counts),
                                        p=weights).tolist())
                dummies = iter(rng.integers(0, 2**32, self.dummies_per_prefix
                                            * sum(counts)).tolist())
                for position in rng.permutation(len(kinds)).tolist():
                    if position >= gethash:
                        yield kinds[position], ()
                        continue
                    real = [members[next(ranks)] for _ in range(counts[position])]
                    if padded[position]:
                        real += [Prefix.from_int(next(dummies), 32) for _ in
                                 range(self.dummies_per_prefix * counts[position])]
                    yield "gethash", tuple(real)

        return requests()

    def run(self, system: System, seconds: float, recorder=None) -> Loop:
        loop = Loop(recorder=recorder)
        transport = system.transports[0]
        clock = system.clock
        cookie = CookieJar().issue("e2e-gethash")
        expected = _ExpectedMatches(system)
        requests = self.inputs(system)
        cold = UpdateRequest(cookie=cookie, states=tuple(
            ListState(database.descriptor.name, ChunkRange(), ChunkRange())
            for database in system.server.database))
        current = UpdateRequest(cookie=cookie, states=tuple(
            ListState(database.descriptor.name,
                      ChunkRange({chunk.number for chunk in database.add_chunks}),
                      ChunkRange({chunk.number for chunk in database.sub_chunks}))
            for database in system.server.database))
        answered: list[tuple[str, tuple[Prefix, ...], object]] = []
        open_loop: list[float] = []

        def send(due: float | None = None) -> int:
            """One request; its latency is kept from ``due`` (open loop) or,
            for a gethash, from when it was sent (closed loop)."""
            kind, prefixes = next(requests)
            clock.advance(self.request_seconds)
            start = perf_counter()
            try:
                if kind == "gethash":
                    response = transport.send_full_hash(FullHashRequest(
                        cookie=cookie, prefixes=prefixes, timestamp=clock.now()))
                else:
                    response = transport.send_update(
                        cold if kind == "cold" else current)
            except ReproError as exc:
                loop.failed += 1
                _failure(exc, self.failures)
                return 0
            end = perf_counter()
            if due is not None:
                open_loop.append(end - due)
            elif kind == "gethash":
                loop.latencies_s.append(end - start)
            answered.append((kind, prefixes, response))
            return 1

        def verify() -> None:
            for kind, prefixes, response in answered:
                expected.check(kind, prefixes, response)
            answered.clear()

        # Phase A: closed loop, the next request leaves when the last returns.
        loop.timed(seconds / 2, send, verify)
        # Phase B: open loop at a fixed rate; each request is timed from
        # when it was due, so a stall also delays the requests behind it.
        # Waking an idle service is at the mercy of the host's scheduler,
        # so these latencies are reported, not gated.
        interval = 1.0 / self.open_loop_rate
        per_segment = max(1, int(seconds / 2 / SEGMENTS * self.open_loop_rate))
        for _ in range(SEGMENTS):
            loop.tracing(True)
            origin = perf_counter()
            for index in range(per_segment):
                due = origin + index * interval
                loop.idle_s += _wait_until(due)
                loop.late_s.append(perf_counter() - due)
                loop.ops += send(due)
            loop.busy_s += perf_counter() - origin
            loop.tracing(False)
            verify()
        loop.extras["open_loop_p50_ms"] = percentile(open_loop, 0.50) * 1e3
        loop.extras["open_loop_p99_ms"] = percentile(open_loop, 0.99) * 1e3
        return loop


def _wait_until(due: float) -> float:
    """Sleep, then spin, until ``due``; returns the seconds waited."""
    start = perf_counter()
    if due - start > 0.0005:
        sleep(due - start - 0.0005)
    while perf_counter() < due:
        pass
    return perf_counter() - start


class _ExpectedMatches:
    """The gethash and downloads answers the provisioning ground truth implies."""

    def __init__(self, system: System) -> None:
        self._matches: dict[Prefix, set[tuple[str, bytes]]] = {}
        self._prefixes: dict[str, set[Prefix]] = {}
        for database in system.server.database:
            name = database.descriptor.name
            self._prefixes[name] = set()
            for expression in system.ground_truth.get(name, ()):
                digest = FullHash.of(expression)
                prefix = digest.prefix()
                self._matches.setdefault(prefix, set()).add((name, digest.digest))
                self._prefixes[name].add(prefix)

    def check(self, kind: str, prefixes: tuple[Prefix, ...], response) -> None:
        if kind == "gethash":
            want = set().union(*(self._matches.get(prefix, ()) for prefix in prefixes))
            got = {(match.list_name, match.full_hash.digest) for match in response.matches}
            if got != want or any(match.prefix not in prefixes
                                  for match in response.matches):
                raise OracleError(f"gethash for {len(prefixes)} prefixes returned "
                                  f"{len(got)} matches, expected {len(want)}")
            return
        for update in response.updates:
            served = {prefix for chunk in update.add_chunks for prefix in chunk.prefixes}
            want = self._prefixes[update.list_name] if kind == "cold" else set()
            if served != want or update.sub_chunks:
                raise OracleError(f"{kind} downloads of {update.list_name} served "
                                  f"{len(served)} prefixes, expected {len(want)}")


# -- ingest-live ---------------------------------------------------------------


class IngestLive(Workload):
    """Batched commits to a SQLite-backed server while clients poll over HTTP.

    Writes beside reads: storage commits plus the update path
    (``chunks_after``, downloads frames, the client store's ``update``),
    with every check carrying an update poll of four chunks.
    """

    name = "ingest-live"

    clients = 4
    bulk_entries = 20_000
    step_entries = 25
    step_seconds = 450.0
    corpus_urls = 40
    ingested_urls = 10
    recent_steps = 16
    list_name = GOOGLE_LISTS[0].name

    def __init__(self, seed: int, *, scale: Scale = MEDIUM,
                 bulk_entries: int | None = None) -> None:
        super().__init__(seed, scale=scale)
        if bulk_entries is not None:
            self.bulk_entries = bulk_entries

    def setup(self) -> System:
        pool = self._context().url_pool("alexa")
        clock = ManualClock()
        server = SafeBrowsingServer(GOOGLE_LISTS, clock=clock, storage="sqlite",
                                    max_log_entries=DEFAULT_FLEET_LOG_BOUND)
        bulk = synthetic_additions(self.list_name, self.bulk_entries, seed=self.seed)
        server.blacklist(self.list_name, [mutation.expression for mutation in bulk])
        server.database.commit()
        service = ServiceThread(server).start()
        transport = HttpTransport(service.address, server=server)
        clients = [SafeBrowsingClient(transport=transport, name=f"e2e-ingest-{index}",
                                      clock=clock)
                   for index in range(self.clients)]
        # Stagger the initial syncs one step apart, so that from the first
        # round on every check comes due for exactly one update poll.
        for client in clients:
            clock.advance(self.step_seconds)
            client.update()
        return System(clock=clock, server=server, clients=clients,
                      transports=[transport], service=service,
                      pipeline=IngestionPipeline(server, batch_size=self.step_entries),
                      pool=pool)

    def inputs(self, system: System) -> Iterator[tuple[list, list[str]]]:
        """``(mutations, corpus URLs + URLs of recently committed entries)``."""
        rng = np.random.default_rng([self.seed, 0x1A6])
        recent: deque[str] = deque(maxlen=self.recent_steps * self.step_entries)
        start = self.bulk_entries
        while True:
            mutations = synthetic_additions(self.list_name, self.step_entries,
                                            seed=self.seed, start=start)
            start += self.step_entries
            recent.extend(mutation.expression for mutation in mutations)
            corpus = rng.integers(0, len(system.pool), self.corpus_urls).tolist()
            ingested = rng.integers(0, len(recent), self.ingested_urls).tolist()
            yield mutations, ([system.pool[pick] for pick in corpus]
                              + [f"http://{recent[pick]}" for pick in ingested])

    def run(self, system: System, seconds: float, recorder=None) -> Loop:
        loop = Loop(recorder=recorder)
        pipeline = system.pipeline
        rounds = self.inputs(system)
        commits: list[float] = []
        committed = 0
        checked: list[tuple[list[str], list]] = []
        # Every check follows its client's poll of everything committed so
        # far: the corpus URLs are clean and the ingested entries listed.
        expected = [False] * self.corpus_urls + [True] * self.ingested_urls
        turn = 0

        def step() -> int:
            nonlocal committed, turn
            mutations, urls = next(rounds)
            client = system.clients[turn % len(system.clients)]
            turn += 1
            pipeline.submit(mutations)
            try:
                start = perf_counter()
                progress = pipeline.step()
                commits.append(perf_counter() - start)
                if progress.committed_version != progress.version:
                    raise OracleError(f"torn commit: committed_version "
                                      f"{progress.committed_version} != version "
                                      f"{progress.version}")
                committed += progress.applied
                system.clock.advance(self.step_seconds)
                start = perf_counter()
                results = client.check_urls(urls)
                loop.latencies_s.append(perf_counter() - start)
            except ReproError as exc:
                loop.failed += len(urls)
                _failure(exc, self.failures)
                return 0
            checked.append((urls, results))
            return len(urls)

        def verify() -> None:
            for urls, results in checked:
                _check_verdicts(urls, results, expected)
            checked.clear()

        loop.timed(seconds, step, verify)
        loop.extras["commit_p50_ms"] = percentile(commits, 0.50) * 1e3
        loop.extras["commit_p99_ms"] = percentile(commits, 0.99) * 1e3
        loop.extras["ingest_entries_per_s"] = committed / sum(commits)
        return loop

    def finish(self, system: System) -> None:
        database = system.server.database
        if database.committed_version != database.version:
            raise OracleError(f"committed_version {database.committed_version} "
                              f"!= version {database.version} at the end")
        system.clock.advance(2 * system.server.poll_interval)
        served = sum(list_db.prefix_count() for list_db in database)
        for client in system.clients:
            client.update()
            if client.local_database_size() != served:
                raise OracleError(f"{client.name} holds {client.local_database_size()} "
                                  f"prefixes after a final poll, the server {served}")


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (Browse, Crawl, GethashHttp, IngestLive)
}

#: Units of the end-to-end values reported beside the gated metrics of
#: ``BENCHMARK.json``: pooled latency percentiles and open-loop latencies,
#: whose run-to-run spread on a shared host is too wide to gate; the share
#: of failed operations, which is 0 on a correct run (the gate reads it from
#: ``failed``); and the ingest-live commit path.
EXTRA_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "latency_samples": "count",
    "failed_fraction": "ratio",
    "open_loop_p50_ms": "ms",
    "open_loop_p99_ms": "ms",
    "commit_p50_ms": "ms",
    "commit_p99_ms": "ms",
    "ingest_entries_per_s": "entry/s",
}


# -- measurement ---------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _start(workload: Workload, repeats: int) -> tuple[System, list[float]]:
    """Set up ``repeats`` times, keeping the last system; returns the times."""
    times = []
    system = None
    for _ in range(repeats):
        if system is not None:
            system.close()
            system = None
            gc.collect()
        start = perf_counter()
        system = workload.setup()
        times.append(perf_counter() - start)
    gc.collect()
    return system, times


def _run_checked(workload: Workload, system: System, seconds: float) -> Loop:
    try:
        loop = workload.run(system, seconds)
        workload.finish(system)
    finally:
        system.close()
    return loop


def measure(workload: Workload, seconds: float, *,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """The untraced run: end-to-end metrics and the input digest."""
    system, setup_times = _start(workload, setup_repeats)
    digest = workload.inputs_digest(system)
    loop = _run_checked(workload, system, seconds)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": loop.rate(),
        "latency_ms": loop.latency_s() * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    extras = {
        "latency_p50_ms": percentile(loop.latencies_s, 0.50) * 1e3,
        "latency_p99_ms": percentile(loop.latencies_s, 0.99) * 1e3,
        "latency_samples": len(loop.latencies_s),
        "failed_fraction": loop.failed / loop.attempted,
        **loop.extras,
    }
    return {
        "metrics": metrics, "extras": extras, "inputs_digest": digest,
        "attempted": loop.attempted, "failed": loop.failed,
        "samples": {"setup_s": setup_times, "window_rates": loop.window_rates},
    }


def measure_traced(workload: Workload, seconds: float, *,
                   trace_path: Path | None = None,
                   scratch: Path | None = None) -> dict:
    """Per-layer metrics: half the time untraced, then half traced.

    Each half runs on a fresh set-up; the ratio of their rates is the
    tracing overhead.
    """
    system, _ = _start(workload, 1)
    digest = workload.inputs_digest(system)
    plain = _run_checked(workload, system, seconds / 2)

    system, _ = _start(workload, 1)
    recorder = tracing.SpanRecorder()
    tracing.instrument(recorder, system)
    before = tracing.counters(system)
    try:
        loop = workload.run(system, seconds / 2, recorder)
        after = tracing.counters(system)
        workload.finish(system)
        sqlite_mb = tracing.sqlite_mb(system, scratch) if scratch else 0.0
    finally:
        recorder.restore()
        system.close()
    if trace_path is not None:
        recorder.write_chrome_trace(trace_path)
    metrics = tracing.layer_metrics(
        recorder, {name: after[name] - before[name] for name in after},
        busy_s=loop.busy_s, idle_s=loop.idle_s,
        late_p99_ms=percentile(loop.late_s, 0.99) * 1e3 if loop.late_s else 0.0,
        overhead=plain.rate() / loop.rate(),
        sqlite_mb=sqlite_mb)
    return {
        "metrics": metrics, "inputs_digest": digest,
        "attempted": plain.attempted + loop.attempted,
        "failed": plain.failed + loop.failed,
        "budget": tracing.budget(recorder, loop.busy_s, loop.idle_s),
        "events": recorder.events,
    }
