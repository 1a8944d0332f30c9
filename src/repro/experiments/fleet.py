"""Fleet traffic simulator: N clients hammering one provider.

The paper's headline numbers come from workloads far beyond a per-URL loop
(10^9 decompositions against 10^5-prefix blacklists), and the ROADMAP's north
star is a service shaped for millions of clients.  This module drives that
direction at reproduction scale: a :class:`FleetSimulator` runs ``N``
simulated Safe Browsing clients against one :class:`SafeBrowsingServer` over
a *shared* :class:`~repro.clock.ManualClock`, feeding each client a
deterministic, revisit-heavy URL stream drawn from the synthetic corpora.

Two execution modes share identical streams, schedules and verdict
semantics:

* ``"scalar"`` — every URL goes through :meth:`SafeBrowsingClient.check_url`
  (the reference oracle, one full pipeline pass per URL);
* ``"batched"`` — URLs are checked in page-load batches through
  :meth:`SafeBrowsingClient.check_urls`, which amortizes canonicalization,
  hashing, store probes and full-hash requests batch-wide.

Every client reaches the server through a
:class:`~repro.safebrowsing.transport.Transport`: ``"in-process"`` (direct
dispatch, the reference behaviour), ``"simulated"`` (seeded latency and
failure injection over the shared clock) or ``"http"`` (real sockets to a
co-hosted service).  The server runs the core with a TTL'd
full-hash response cache and a request log bounded by ``max_log_entries``,
so fleet runs stay memory-stable.  ``benchmarks/bench_fleet_throughput.py``
asserts the batched mode's >= 10x speedup at ``MEDIUM`` scale.

:class:`FleetConfig` holds only what callers vary.  Each client browses the
default :class:`~repro.experiments.profiles.ClientProfile` as its population
profile varies it; the rest of the traffic shape is fixed by module
constants (Google's lists, a 25-URL malicious pool per client, 120 logical
seconds per round, 10% update jitter, 2% tracked visits).  Each
:class:`FleetReport` field declares in its metadata how shard reports merge
it and, where a run copies it from the config or a stats snapshot, its
source; :meth:`FleetReport.merge` and the report a run builds both follow
that one declaration.  A run is set-up, one pass per round
(online/reconnect, lookups, clock, churn), then accounting.

**The adversary rides along.**  With ``FleetConfig(adversary=True)`` the
simulator runs the paper's tracking attack *online* against its own
traffic: it plants synthetic tracked targets (dedicated ``.example``
domains, guaranteed disjoint from the corpus and the blacklists), pushes
their Algorithm 1 prefixes through the normal provisioning channel, plants
visits into the client streams at deterministic positions (the ground
truth), and attaches a
:class:`~repro.analysis.streaming.StreamingTrackingDetector` to the
server's log-observer hook.  Detection therefore sees every request even
though fleet runs rotate the bounded request log, and the report scores the
detector's (client, target) pairs against the planted ground truth
(precision/recall).  Detection runs on the shadow-prefix index, so the
adversary's cost scales with the traffic, not the target count.

**And the fleet churns.**  ``FleetConfig(churn_fraction=...,
restart_interval=...)`` restarts a deterministic subset of the clients
every ``restart_interval`` rounds, the way a real deployment loses and
regains browsers mid-day.  A restarting client is replaced by a fresh
instance with the same name (hence the same cookie); with ``warm_start``
(the default) it saves a snapshot (:mod:`repro.safebrowsing.snapshot`) and
the replacement restores it, so its next update poll transfers only the
chunks committed since — ``FleetReport`` accounts the sync bandwidth the
snapshots absorbed (``warm_start_prefixes_resumed`` vs
``client_update_prefixes_received``), and
``benchmarks/bench_warm_start.py`` asserts warm restarts transfer strictly
less than cold ones.

**So does the defense.**  ``FleetConfig(privacy_policy=...)`` installs one
of the registered client-side countermeasures
(:mod:`repro.safebrowsing.privacy`) on every simulated client, and the
report carries the fleet-wide bandwidth/latency accounting
(``client_prefixes_sent``, ``client_dummy_prefixes_sent``,
``bandwidth_overhead_ratio``, extra round-trips, injected delay).
Combining ``adversary=True`` with a policy is the paper's Section 8 arms
race at fleet scale; :mod:`repro.experiments.armsrace` sweeps every policy
and scores the adversary's degradation against the bandwidth each defense
costs.
"""

from __future__ import annotations

import hashlib
import tempfile
import time
from collections.abc import Sequence
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

try:
    import numpy as np
except ImportError:  # pragma: no cover - minimal install without numpy
    np = None  # the experiment raises MissingDependencyError instead

from repro.analysis.inverted_index import PrefixInvertedIndex
from repro.analysis.streaming import StreamingTrackingDetector
from repro.analysis.tracking import TrackingDecision, tracking_prefixes
from repro.clock import ManualClock
from repro.datastructures.memory import DEFAULT_STORE_BACKEND
from repro.exceptions import (
    ExperimentError,
    PolicyError,
    TransportError,
    UpdateError,
    require_dependency,
)
from repro.experiments.profiles import ClientProfile, build_profile
from repro.experiments.scale import ExperimentContext, Scale, SMALL, get_context
from repro.observability.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    merge_snapshots,
)
from repro.reporting.tables import Table
from repro.safebrowsing.client import ClientConfig, SafeBrowsingClient
from repro.safebrowsing.protocol import ClientStats
from repro.safebrowsing.lists import ListProvider, lists_for_provider
from repro.safebrowsing.privacy import build_policy
from repro.safebrowsing.server import DEFAULT_RESPONSE_CACHE_SECONDS, SafeBrowsingServer
from repro.safebrowsing.storage import STORAGE_KINDS
from repro.safebrowsing.transport import TRANSPORT_KINDS, build_transport

#: Execution modes understood by the simulator.
FLEET_MODES = ("scalar", "batched")

#: Algorithm 1's collision budget used by the fleet adversary (matches
#: :class:`~repro.analysis.tracking.TrackingSystem`'s default).
TRACKING_DELTA = 4

#: Request-log bound used by fleet runs (analysis experiments replay the log
#: and keep it unbounded; a fleet only reads counters, so it rotates —
#: which is exactly why the fleet adversary detects online, through the
#: log-observer hook, instead of rescanning the log post hoc).
DEFAULT_FLEET_LOG_BOUND = 10_000

#: Template of the synthetic URLs the adversary tracks.  Each target lives
#: alone on its own two-label registered domain under ``.example`` — a TLD
#: the corpus generator never emits — so Algorithm 1 resolves every target
#: to a 2-prefix TINY_DOMAIN decision and neither benign browsing nor the
#: blacklisted pool can collide with a tracking prefix.  Planted ground
#: truth is therefore exact: precision and recall measure the detector, not
#: workload noise.
TRACKED_TARGET_TEMPLATE = "http://fleet-tracked-{index:03d}.example/visit.html"

#: Whose lists the simulated server serves.
_PROVIDER = ListProvider.GOOGLE

#: Size of the per-client sample of the blacklist that its malicious visits
#: come from (a user keeps running into the same few bad sites, not uniform
#: draws over the provider's whole list).
_MALICIOUS_POOL_SIZE = 25

#: Logical seconds the shared clock advances between rounds (drives update
#: polls, full-hash cache expiry and the profiles' activity schedule).
_ROUND_SECONDS = 120.0

#: Per-client update jitter, so the fleet desynchronizes its polls.
_UPDATE_JITTER_FRACTION = 0.1

#: Fraction of each client's stream replaced by visits to tracked targets
#: (a population profile may override it per client).  Every exposed client
#: plants at least one visit, so an adversary run always has ground truth to
#: score against.
_TRACKED_VISIT_FRACTION = 0.02


@dataclass(frozen=True, slots=True)
class FleetConfig:
    """Tunable behaviour of one fleet simulation.

    Attributes
    ----------
    mode:
        ``"scalar"`` (per-URL oracle) or ``"batched"``.
    store_backend:
        Client-side store backend, a key of
        :data:`~repro.datastructures.memory.STORE_FACTORIES` (default
        :data:`~repro.datastructures.memory.DEFAULT_STORE_BACKEND`).
    seed:
        Master seed; client ``i`` derives its stream from ``seed + i``.
    transport:
        The client↔server boundary: ``"in-process"`` (direct dispatch, the
        PR 1 reference behaviour), ``"simulated"`` (seeded latency and
        failure injection over the shared clock), or ``"http"`` — the
        simulator co-hosts a :class:`~repro.safebrowsing.netservice.NetService`
        on a loopback ephemeral port in a background thread of its own
        process (sharing the server core and the logical clock), and every
        client delivers through a real socket.  Because the fleet loop
        blocks on each response, requests serialize exactly as in-process
        ones do, and the run's counters are byte-identical to the
        in-process transport's (property-pinned).
    latency_seconds / latency_jitter_seconds / failure_rate:
        Parameters of the simulated network transport (ignored in-process).
    http_timeout_seconds / http_retries:
        Socket timeout and connection-level retry budget of the HTTP
        transport (ignored by the other kinds).
    server_cache_seconds:
        TTL of the server's full-hash response cache (``0`` disables it).
    max_log_entries:
        Bound on the server request log.  Fleet runs default to a rotating
        window (the simulator only reads counters); pass ``None`` to keep
        the whole log, as the analysis experiments do.
    adversary:
        Run the streaming tracking adversary alongside the fleet: plant
        tracked targets, push their Algorithm 1 prefixes, attach a
        :class:`~repro.analysis.streaming.StreamingTrackingDetector` to the
        server's log-observer hook, and score detections against the
        planted ground truth.
    tracked_target_count:
        How many synthetic targets the adversary tracks (``None`` uses the
        scale's ``tracked_targets``).
    privacy_policy:
        Client-side defense installed on every simulated client — a name
        from :data:`repro.safebrowsing.privacy.POLICY_FACTORIES`
        (``"none"`` keeps the undefended client).  Combined with
        ``adversary=True`` this is the arms race: the streaming detector
        scores against traffic the policy has reshaped.
    dummy_count / widen_bits / mix_pool_size / mix_delay_seconds:
        Parameters of the ``dummy`` / ``widen`` / ``mix`` policies (each
        policy reads the ones it understands).
    churn_fraction:
        Fraction of the fleet restarted at every churn point (``0``
        disables churn).  A restarting client is torn down and replaced by
        a fresh instance with the same name (hence the same cookie), as a
        browser restart would.
    restart_interval:
        Rounds between churn points; required positive when
        ``churn_fraction > 0``.
    warm_start:
        ``True`` (default): a restarting client saves a snapshot and the
        replacement restores it, so its next poll fetches only newer
        chunks.  ``False``: the replacement cold-starts empty and
        re-downloads its lists — the baseline the warm-start benchmark
        compares against.
    server_storage:
        Durable storage backend of the server database — a name from
        :data:`repro.safebrowsing.storage.STORAGE_KINDS`.  ``"memory"``
        (default) keeps the dict-only state; ``"sqlite"`` journals every
        list mutation to a SQLite database.  Either way the
        process-parallel engine hands workers the server as one SQLite
        file to attach read-only.
    profile:
        Name of the population profile
        (:data:`repro.experiments.profiles.PROFILE_FACTORIES`) that assigns
        every client its per-client browsing behaviour.  ``"uniform"``
        (default) keeps the legacy homogeneous fleet; heterogeneous
        profiles vary working sets, Zipf skew, locale slices of the corpus,
        diurnal activity, connectivity, and per-client privacy-policy /
        adversary-exposure mixes across the population.
    """

    mode: str = "batched"
    store_backend: str = DEFAULT_STORE_BACKEND
    seed: int = 20160628
    transport: str = "in-process"
    latency_seconds: float = 0.05
    latency_jitter_seconds: float = 0.02
    failure_rate: float = 0.0
    http_timeout_seconds: float = 10.0
    http_retries: int = 2
    server_cache_seconds: float = DEFAULT_RESPONSE_CACHE_SECONDS
    max_log_entries: int | None = DEFAULT_FLEET_LOG_BOUND
    adversary: bool = False
    tracked_target_count: int | None = None
    privacy_policy: str = "none"
    dummy_count: int = 4
    widen_bits: int = 16
    mix_pool_size: int = 8
    mix_delay_seconds: float = 0.25
    churn_fraction: float = 0.0
    restart_interval: int = 0
    warm_start: bool = True
    server_storage: str = "memory"
    profile: str = "uniform"
    #: Collect a full metrics registry across client, server, transport and
    #: storage for this run.  ``False`` (default) binds the shared null
    #: registry everywhere, keeping the uninstrumented hot loop hot; the
    #: overhead benchmark pins the cost of both settings.
    collect_metrics: bool = False

    def __post_init__(self) -> None:
        # Profile names are validated by the registry (single source of
        # truth) so a typo fails at config time with the registered list.
        build_profile(self.profile)
        # Policy name and parameters are validated by the policy layer
        # itself (single source of truth): building each parameterized
        # policy with this config's options surfaces any bad value,
        # re-raised in the fleet's own error type.
        try:
            build_policy(self.privacy_policy)
            build_policy("dummy", dummies_per_query=self.dummy_count)
            # Fleet clients run the default 32-bit prefixes, so a widening
            # width that cannot widen is rejected here, not mid-run.
            build_policy("widen", widen_bits=self.widen_bits).validate_for(32)
            build_policy("mix", mix_pool_size=self.mix_pool_size,
                         mix_delay_seconds=self.mix_delay_seconds)
        except PolicyError as exc:
            raise ExperimentError(str(exc)) from exc
        # The store registry is owned by the client layer, which rejects an
        # unknown backend with the registered names.
        try:
            ClientConfig(store_backend=self.store_backend)
        except UpdateError as exc:
            raise ExperimentError(str(exc)) from exc
        if self.tracked_target_count is not None and self.tracked_target_count < 1:
            raise ExperimentError("tracked_target_count must be positive or None")
        if self.mode not in FLEET_MODES:
            raise ExperimentError(
                f"unknown fleet mode {self.mode!r}; expected one of {FLEET_MODES}"
            )
        if self.transport not in TRANSPORT_KINDS:
            raise ExperimentError(
                f"unknown transport {self.transport!r}; "
                f"expected one of {TRANSPORT_KINDS}"
            )
        if self.server_storage not in STORAGE_KINDS:
            raise ExperimentError(
                f"unknown server storage {self.server_storage!r}; "
                f"expected one of {STORAGE_KINDS}"
            )
        if self.latency_seconds < 0 or self.latency_jitter_seconds < 0:
            raise ExperimentError("latency parameters must be non-negative")
        if self.http_timeout_seconds <= 0:
            raise ExperimentError("http_timeout_seconds must be positive")
        if self.http_retries < 0:
            raise ExperimentError("http_retries must be non-negative")
        if not (0.0 <= self.failure_rate < 1.0):
            raise ExperimentError("failure_rate must be in [0, 1)")
        if self.server_cache_seconds < 0:
            raise ExperimentError("server_cache_seconds must be non-negative")
        if self.max_log_entries is not None and self.max_log_entries < 1:
            raise ExperimentError("max_log_entries must be positive or None")
        if not (0.0 <= self.churn_fraction <= 1.0):
            raise ExperimentError("churn_fraction must be in [0, 1]")
        if self.restart_interval < 0:
            raise ExperimentError("restart_interval must be non-negative")
        if self.churn_fraction > 0 and self.restart_interval == 0:
            raise ExperimentError(
                "churn_fraction > 0 requires a positive restart_interval "
                "(rounds between churn points)"
            )


def _throughput(urls_checked: int, elapsed_seconds: float) -> float:
    """URLs per second, with ``0.0`` for degenerate (zero-elapsed) runs.

    ``float("inf")`` would serialize as the non-standard ``Infinity`` token
    in the benchmark JSON artifacts (which are written with
    ``allow_nan=False`` precisely to catch that), so a run too fast or too
    empty to measure reports zero throughput instead.
    """
    if elapsed_seconds <= 0.0:
        return 0.0
    return urls_checked / elapsed_seconds


def pair_digest(pairs) -> str:
    """Digest of a set of detected ``(client index, target URL)`` pairs.

    The one formula shared by monolithic runs and :meth:`FleetReport.merge`:
    a digest cannot be combined from per-shard digests, so the merge unions
    the pairs and recomputes it — byte-identical to the monolithic digest
    because client indices are global.
    """
    return hashlib.sha256(
        "\n".join(f"{client_index}\t{target_url}"
                  for client_index, target_url in sorted(pairs))
        .encode("utf-8")
    ).hexdigest()[:16]


def _rule(merge: str, *, config: bool = False, client: str | None = None,
          server: str | None = None, **kwargs):
    """A :class:`FleetReport` field that declares its merge rule and source.

    ``merge`` says how :meth:`FleetReport.merge` combines the field across
    shard reports: ``"match"`` (the shards must agree; the merge keeps the
    common value), ``"derived"`` (recomputed from the merged fields by
    :meth:`FleetReport._completed`), or a key of :data:`_MERGE_RULES`.  The
    source says where :meth:`FleetSimulator.run` reads the value:
    ``config=True`` copies the same-named :class:`FleetConfig` field, and
    ``client``/``server`` name a key of ``ClientStats.aggregate`` /
    ``ServerStats.as_dict``.  A field with no source is measured by the run.
    """
    return field(metadata={"merge": merge, "config": config,
                           "client": client, "server": server}, **kwargs)


def _merge_metrics(snapshots: list[dict | None]) -> dict | None:
    """Exact merge of the shards' metrics snapshots (``None`` when no shard
    collected metrics)."""
    collected = [snapshot for snapshot in snapshots if snapshot is not None]
    return merge_snapshots(collected) if collected else None


#: How a merge combines one field's per-shard values, by rule name.
#: Counters sum exactly across disjoint client shards; ``elapsed_seconds``
#: is the slowest shard (the shards ran concurrently); the detected pairs
#: are unioned (client indices are global, so shards union disjointly into
#: exactly the monolithic set).
_MERGE_RULES = {
    "sum": sum,
    "max": max,
    "union": lambda pair_sets: tuple(sorted(set().union(*pair_sets))),
    "snapshots": _merge_metrics,
}


@dataclass(frozen=True, slots=True)
class FleetReport:
    """Everything one fleet run measured.

    Each field declares its merge rule, and where a run reads it, in its
    metadata (see :func:`_rule`).
    """

    mode: str = _rule("match", config=True)
    scale: str = _rule("match")
    clients: int = _rule("sum")
    urls_checked: int = _rule("sum")
    rounds: int = _rule("max")
    elapsed_seconds: float = _rule("max")
    urls_per_second: float = _rule("derived")
    server_update_requests: int = _rule("sum", server="update_requests")
    server_full_hash_requests: int = _rule("sum", server="full_hash_requests")
    server_prefixes_received: int = _rule("sum", server="prefixes_received")
    local_hits: int = _rule("sum", client="local_hits")
    cache_hits: int = _rule("sum", client="cache_hits")
    malicious_verdicts: int = _rule("sum", client="malicious_verdicts")
    transport: str = _rule("match", config=True, default="in-process")
    server_cache_hits: int = _rule("sum", server="response_cache_hits", default=0)
    server_cache_misses: int = _rule("sum", server="response_cache_misses", default=0)
    log_entries_evicted: int = _rule("sum", server="log_entries_evicted", default=0)
    transport_failures: int = _rule("sum", default=0)
    adversary: bool = _rule("match", config=True, default=False)
    tracked_targets: int = _rule("match", default=0)
    tracking_detections: int = _rule("sum", default=0)
    tracking_detected_pairs: int = _rule("derived", default=0)
    tracking_true_pairs: int = _rule("sum", default=0)
    tracking_precision: float = _rule("derived", default=1.0)
    tracking_recall: float = _rule("derived", default=1.0)
    #: Digest of the sorted detected (client, target) pairs, so "the modes
    #: detected the *same* pairs" is checkable from two reports without
    #: carrying the sets themselves (equal counts or ratios would not
    #: distinguish different pair sets of the same size).
    tracking_pair_digest: str = _rule("derived", default="")
    privacy_policy: str = _rule("match", config=True, default="none")
    client_prefixes_sent: int = _rule("sum", client="prefixes_sent", default=0)
    client_dummy_prefixes_sent: int = _rule(
        "sum", client="dummy_prefixes_sent", default=0)
    client_full_hash_requests: int = _rule(
        "sum", client="full_hash_requests", default=0)
    client_extra_round_trips: int = _rule("sum", client="extra_round_trips", default=0)
    policy_delay_seconds: float = _rule(
        "sum", client="policy_delay_seconds", default=0.0)
    churn_fraction: float = _rule("match", config=True, default=0.0)
    restart_interval: int = _rule("match", config=True, default=0)
    warm_start: bool = _rule("match", config=True, default=True)
    client_restarts: int = _rule("sum", default=0)
    #: Prefixes the restarted clients resumed from their snapshots instead
    #: of re-downloading (0 for cold restarts — that is the saving).
    warm_start_prefixes_resumed: int = _rule("sum", default=0)
    #: Fleet-wide sync bandwidth: every prefix carried by update-protocol
    #: chunks, across original and restarted clients.
    client_update_prefixes_received: int = _rule(
        "sum", client="update_prefixes_received", default=0)
    client_update_requests: int = _rule("sum", client="update_requests", default=0)
    #: Population profile the fleet ran under (``PROFILE_FACTORIES`` name).
    profile: str = _rule("match", config=True, default="uniform")
    #: Client shards this report aggregates (1 for a monolithic run; a
    #: merged report sums its inputs', so hierarchy levels stay exact).
    shards: int = _rule("sum", default=1)
    #: Worker processes that produced this report (1 for in-process runs;
    #: the parallel engine stamps the pool size on the merged report).
    workers: int = _rule("max", default=1)
    #: Detected pairs that were planted ground truth — carried as a counter
    #: (not just the precision ratio) so merges recompute ratios from
    #: counters instead of averaging ratios.
    tracking_correct_pairs: int = _rule("sum", default=0)
    #: The detected ``(global client index, target URL)`` pairs themselves.
    #: A digest cannot be combined from shard digests, so merging needs the
    #: union of the actual pairs.
    tracking_pairs: tuple[tuple[int, str], ...] = _rule("union", default=())
    #: Restarts triggered by intermittent clients coming back online
    #: (profile-driven), a subset of ``client_restarts``.
    reconnect_restarts: int = _rule("sum", default=0)
    #: (client, round) slots skipped because the profile put the client
    #: offline — the activity/connectivity model's footprint.
    offline_client_rounds: int = _rule("sum", default=0)
    #: Metrics-registry snapshot of the run (``FleetConfig.collect_metrics``),
    #: ``None`` when collection was off.  Shard snapshots merge exactly —
    #: counters and histogram buckets summed, never averaged — so a merged
    #: report's registry equals a monolithic run's.
    metrics: dict | None = _rule("snapshots", default=None)

    @property
    def warm_start_bandwidth_saved_fraction(self) -> float:
        """Fraction of would-be sync traffic the snapshots absorbed.

        Resumed prefixes over (resumed + actually transferred); ``0.0``
        for a fleet that neither resumed nor transferred anything, keeping
        the JSON artifacts finite.
        """
        total = self.warm_start_prefixes_resumed + self.client_update_prefixes_received
        if total <= 0:
            return 0.0
        return self.warm_start_prefixes_resumed / total

    @property
    def real_prefixes_sent(self) -> int:
        """Prefixes sent that were genuine needs, not policy cover traffic."""
        return self.client_prefixes_sent - self.client_dummy_prefixes_sent

    @property
    def bandwidth_overhead_ratio(self) -> float:
        """Cover-traffic prefixes per real prefix sent.

        ``0.0`` for a fleet that sent nothing (never ``inf``/NaN — these
        ratios land in JSON artifacts written with ``allow_nan=False``).
        """
        real = self.real_prefixes_sent
        if real <= 0:
            return 0.0
        return self.client_dummy_prefixes_sent / real

    @property
    def single_prefix_k_anonymity(self) -> float:
        """Factor by which cover traffic dilutes a single observed prefix.

        The provider cannot tell a real prefix from policy cover traffic,
        so its confidence that any one received prefix is real is the
        inverse of this factor (Section 8's single-prefix k-anonymity
        argument).  ``1.0`` — no dilution — when nothing was sent, again
        keeping JSON artifacts finite.
        """
        real = self.real_prefixes_sent
        if real <= 0:
            return 1.0
        return self.client_prefixes_sent / real

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of locally-hitting checks served from the full-hash cache."""
        if self.local_hits == 0:
            return 0.0
        return self.cache_hits / self.local_hits

    @property
    def server_cache_hit_rate(self) -> float:
        """Fraction of full-hash batches served from the server's response cache."""
        total = self.server_cache_hits + self.server_cache_misses
        if total == 0:
            return 0.0
        return self.server_cache_hits / total

    def traffic_signature(self) -> tuple[int, int, int]:
        """The mode-independent traffic totals.

        Coalescing changes *how many requests* carry the prefixes, never
        *which prefixes* are revealed or *which verdicts* come back — so
        these three totals must be identical between scalar and batched runs
        over the same streams (the perf smoke test's oracle check).
        """
        return (self.server_prefixes_received, self.local_hits,
                self.malicious_verdicts)

    @classmethod
    def merge(cls, reports: Sequence["FleetReport"]) -> "FleetReport":
        """Exactly aggregate per-shard reports into one fleet-wide report.

        The merge is *exact*, never statistical: every field follows the
        merge rule its metadata declares.  Counters are summed, the detected
        tracking pairs are unioned (indices are global, shards are
        disjoint), and every derived field — precision, recall, the pair
        digest, throughput — is recomputed from the merged counters, never
        averaged from per-shard ratios (the shards are not equally
        weighted).  ``elapsed_seconds`` is the *max* across shards — the
        shards ran concurrently, so the fleet's wall clock is the slowest
        shard, not the sum — and ``urls_per_second`` is recomputed from the
        summed URL count over that max.

        The operation is associative, so hierarchical merges (pairs of
        pairs, a worker tree) produce the same report as one flat merge.
        Reports with mismatched run configurations (any ``"match"`` field)
        are rejected: mixed-configuration reports have no exact merged
        meaning.
        """
        reports = list(reports)
        if not reports:
            raise ExperimentError("cannot merge zero fleet reports")
        values = {}
        for spec in fields(cls):
            rule = spec.metadata["merge"]
            column = [getattr(report, spec.name) for report in reports]
            if rule == "match":
                for theirs in column[1:]:
                    if theirs != column[0]:
                        raise ExperimentError(
                            f"cannot merge fleet reports with mismatched "
                            f"{spec.name}: {column[0]!r} != {theirs!r}"
                        )
                values[spec.name] = column[0]
            elif rule != "derived":
                values[spec.name] = _MERGE_RULES[rule](column)
        return cls._completed(values)

    @classmethod
    def _completed(cls, values: dict) -> "FleetReport":
        """A report from ``values`` — every field except the derived ones.

        The one place the derived fields are computed, for a run's own
        counters and for merged ones alike: throughput from ``urls_checked``
        over ``elapsed_seconds``, and the tracking scores (detected count,
        precision, recall, pair digest) from the detected pairs and the
        ground-truth counters.
        """
        pairs = values["tracking_pairs"]
        correct = values["tracking_correct_pairs"]
        true_pairs = values["tracking_true_pairs"]
        return cls(
            **values,
            urls_per_second=_throughput(values["urls_checked"],
                                        values["elapsed_seconds"]),
            tracking_detected_pairs=len(pairs),
            tracking_precision=correct / len(pairs) if pairs else 1.0,
            tracking_recall=correct / true_pairs if true_pairs else 1.0,
            tracking_pair_digest=pair_digest(pairs) if values["adversary"] else "",
        )


@dataclass(slots=True)
class _Tally:
    """The counters a run's round loop accumulates, named as the
    :class:`FleetReport` fields they fill."""

    urls_checked: int = 0
    transport_failures: int = 0
    client_restarts: int = 0
    reconnect_restarts: int = 0
    warm_start_prefixes_resumed: int = 0
    offline_client_rounds: int = 0


@dataclass(slots=True)
class _FleetRun:
    """What one :meth:`FleetSimulator.run` carries between its stages."""

    server: SafeBrowsingServer
    clock: ManualClock
    detector: StreamingTrackingDetector | None
    clients: list[SafeBrowsingClient]
    streams: list[list[str]]
    profiles: list[ClientProfile]
    ground_truth: set[tuple[int, str]]
    rounds: int
    #: Where restarting clients leave their snapshots (``None`` when no
    #: churn or reconnect restart can fire).
    snapshot_dir: Path | None
    #: Consecutive offline rounds per client, reset when it browses again.
    offline_streaks: list[int]
    #: Stats of clients that restarted, so fleet totals survive restarts.
    retired_stats: list = field(default_factory=list)
    tally: _Tally = field(default_factory=_Tally)


class FleetSimulator:
    """Drive a fleet of clients over one shared logical clock."""

    def __init__(self, scale: Scale = SMALL, config: FleetConfig | None = None,
                 *, context: ExperimentContext | None = None,
                 client_indices: Sequence[int] | None = None,
                 shard_seed: int | None = None) -> None:
        """``scale`` sizes the workload, ``config`` shapes the fleet's
        behaviour, and ``context`` (defaulting to the scale's cached
        :func:`get_context`) supplies the shared corpora and snapshots.

        ``client_indices`` names the *global* client indices this simulator
        drives (default: all of ``scale.clients``).  Everything per-client —
        stream RNG, transport/policy seeds, cookies, profiles — is keyed by
        the global index, so a shard of clients behaves identically inside
        a worker process and inside a monolithic run.  ``shard_seed`` (from
        :func:`repro.experiments.parallel.shard_seed`) redirects the
        shard-*local* randomness — churn draws — so parallel shards don't
        all churn the same local positions; ``None`` keeps the legacy
        fleet-wide churn seeding.
        """
        require_dependency(np, "numpy", "the fleet simulation")
        self.scale = scale
        self.config = config if config is not None else FleetConfig()
        self._context = context if context is not None else get_context(scale)
        if client_indices is None:
            client_indices = range(scale.clients)
        self.client_indices = list(client_indices)
        if not self.client_indices:
            raise ExperimentError("client_indices must not be empty")
        self.shard_seed = shard_seed
        # Bound address of the co-hosted network service during an http
        # run (set by run(); _build_client threads it into the transports,
        # including the ones churn restarts build mid-run).
        self._http_address: tuple[str, int] | None = None
        #: Most sockets the co-hosted service ever had open at once during
        #: the last http run (0 otherwise) — the bench's concurrency figure.
        self.http_peak_connections = 0
        # One registry per simulator: a shard worker's lives and dies with
        # its shard, the parent merges the snapshots off the reports.
        self.metrics: MetricsRegistry = (
            MetricsRegistry() if self.config.collect_metrics else NULL_REGISTRY)
        self._population = build_profile(self.config.profile)
        self._malicious_urls: tuple[str, ...] | None = None

    def profile_for(self, index: int) -> ClientProfile:
        """The population-assigned profile of global client ``index``."""
        return self._population.profile_for(ClientProfile(),
                                            self.config.seed, index)

    # -- workload construction ------------------------------------------------

    def tracked_targets(self) -> tuple[str, ...]:
        """The synthetic URLs the adversary tracks (empty when disabled)."""
        if not self.config.adversary:
            return ()
        count = self.config.tracked_target_count
        if count is None:
            count = self.scale.tracked_targets
        return tuple(TRACKED_TARGET_TEMPLATE.format(index=index)
                     for index in range(count))

    def _blacklisted_urls(self) -> tuple[str, ...]:
        """URLs whose canonical expressions the provider blacklists (built
        once per simulator: every client stream draws from the same list)."""
        if self._malicious_urls is None:
            snapshot = self._context.snapshot(_PROVIDER)
            urls = tuple(f"http://{expression}"
                         for expressions in snapshot.ground_truth.values()
                         for expression in expressions)
            if not urls:
                raise ExperimentError("snapshot has no blacklisted expressions")
            self._malicious_urls = urls
        return self._malicious_urls

    def build_server(self, clock: ManualClock) -> SafeBrowsingServer:
        """A fresh provisioned server on ``clock``.

        The context's cached snapshot server keeps its own clock and is
        shared by other experiments, so the fleet provisions its own server
        (via :meth:`ExperimentContext.provision_server`) instead of
        mutating shared state.  The storage backend comes from
        ``config.server_storage``; a SQLite backend lives in memory.
        """
        config = self.config
        return self._context.provision_server(
            _PROVIDER, clock=clock,
            response_cache_seconds=config.server_cache_seconds,
            max_log_entries=config.max_log_entries,
            storage=config.server_storage,
        )

    def _build_client(self, server: SafeBrowsingServer, clock: ManualClock,
                      index: int) -> SafeBrowsingClient:
        """One fleet client behind its own transport (also the restart path).

        Construction is a pure function of the fleet config and ``index``,
        so a churn restart produces a client with the same name (hence the
        same deterministic cookie — a browser restart keeps its identity),
        the same transport seed and a fresh policy instance.
        """
        config = self.config
        client_config = ClientConfig(
            store_backend=config.store_backend,
            update_jitter_fraction=_UPDATE_JITTER_FRACTION,
        )
        transport = build_transport(
            config.transport, server,
            latency_seconds=config.latency_seconds,
            jitter_seconds=config.latency_jitter_seconds,
            failure_rate=config.failure_rate,
            seed=f"fleet:{config.seed}:transport:{index}",
            metrics=self.metrics,
            address=self._http_address,
            timeout_seconds=config.http_timeout_seconds,
            retries=config.http_retries,
        )
        name = f"fleet-client-{index:03d}"
        # Policies are stateful (mixing pools, RNGs): one fresh instance
        # per client, seeded by the client's name for determinism.  A
        # population profile may override the fleet-wide policy per client
        # (the "policy mix varies across the population" scenario).
        profile = self.profile_for(index)
        policy_name = (profile.privacy_policy
                       if profile.privacy_policy is not None
                       else config.privacy_policy)
        policy = None
        if policy_name != "none":
            policy = build_policy(
                policy_name,
                dummies_per_query=config.dummy_count,
                widen_bits=config.widen_bits,
                mix_pool_size=config.mix_pool_size,
                mix_delay_seconds=config.mix_delay_seconds,
                seed=f"fleet:{config.seed}:policy:{index}",
            )
        return SafeBrowsingClient(transport=transport, name=name,
                                  config=client_config, clock=clock,
                                  privacy_policy=policy,
                                  metrics=self.metrics)

    def client_stream(self, index: int) -> list[str]:
        """The deterministic URL stream of global client ``index``.

        A mixture of revisits to a small personal working set (Zipf-skewed,
        the shape of real browsing), exploration of the client's locale
        slice of the corpus pool, and occasional blacklisted URLs — all
        shaped by the client's population profile and seeded by the global
        index, so the stream is identical whether the client runs in a
        monolithic fleet or inside a parallel shard worker.
        """
        config = self.config
        profile = self.profile_for(index)
        rng = np.random.default_rng(config.seed + index)
        pool = self._context.url_pool("alexa")
        # The client's locale: a contiguous slice of the shared pool.  The
        # uniform profile's (0, 1) slice is the whole pool, so the legacy
        # homogeneous stream (and its RNG draws) are reproduced exactly.
        locale_start = int(round(profile.locale_lo * len(pool)))
        locale_stop = max(locale_start + 1, int(round(profile.locale_hi * len(pool))))
        pool = pool[locale_start:locale_stop]
        malicious = self._blacklisted_urls()
        length = self.scale.fleet_urls_per_client

        working_size = min(profile.working_set_size, len(pool))
        working_indexes = rng.choice(len(pool), size=working_size, replace=False)
        ranks = np.arange(1, working_size + 1, dtype=float)
        zipf_weights = ranks ** -profile.zipf_exponent
        zipf_weights /= zipf_weights.sum()
        malicious_size = min(_MALICIOUS_POOL_SIZE, len(malicious))
        malicious_indexes = rng.choice(len(malicious), size=malicious_size,
                                       replace=False)

        draws = rng.random(length)
        working_picks = rng.choice(working_indexes, size=length, p=zipf_weights)
        pool_picks = rng.integers(0, len(pool), size=length)
        malicious_picks = rng.choice(malicious_indexes, size=length)

        revisit_cut = profile.working_set_fraction
        malicious_cut = revisit_cut + profile.malicious_fraction
        stream: list[str] = []
        for position in range(length):
            draw = draws[position]
            if draw < revisit_cut:
                stream.append(pool[working_picks[position]])
            elif draw < malicious_cut:
                stream.append(malicious[malicious_picks[position]])
            else:
                stream.append(pool[pool_picks[position]])

        # Adversary: overwrite deterministic positions with tracked-target
        # visits (the planted ground truth).  A dedicated rng keeps the base
        # stream identical whether or not the adversary runs, and at least
        # one visit per client guarantees ground truth to score against —
        # unless the client's profile sets its exposure to exactly zero (a
        # population segment the adversary never sees).
        targets = self.tracked_targets()
        if targets:
            visit_fraction = (profile.tracked_visit_fraction
                              if profile.tracked_visit_fraction is not None
                              else _TRACKED_VISIT_FRACTION)
            plant_count = (0 if visit_fraction <= 0.0 else
                           min(length, max(1, round(length * visit_fraction))))
            if plant_count:
                plant_rng = np.random.default_rng([config.seed, index, 0xAD5E])
                positions = plant_rng.choice(length, size=plant_count,
                                             replace=False)
                picks = plant_rng.integers(0, len(targets), size=plant_count)
                for position, pick in zip(positions, picks):
                    stream[position] = targets[pick]
        return stream

    def planted_ground_truth(
            self, streams: Sequence[Sequence[str]]) -> set[tuple[int, str]]:
        """The ``(global client index, target URL)`` pairs planted into
        ``streams`` (which parallel :attr:`client_indices` element-wise)."""
        targets = set(self.tracked_targets())
        return {(client_index, url)
                for client_index, stream in zip(self.client_indices, streams)
                for url in stream
                if url in targets}

    # -- execution -------------------------------------------------------------

    def tracking_decisions(self) -> list[TrackingDecision]:
        """Algorithm 1's decisions for every tracked target — *pure*.

        Computed over a private, fresh web index (the targets live on
        dedicated domains, so nothing from the shared context index is
        needed — and the shared, cached index must not be mutated by fleet
        runs).  Purity matters for the parallel engine: the parent process
        provisions these decisions into the logical server before
        snapshotting it, and every shard worker recomputes the identical
        decisions to watch on its replica — no prefix state needs shipping.
        """
        targets = self.tracked_targets()
        if not targets:
            return []
        index = PrefixInvertedIndex()
        return [tracking_prefixes(url, index, delta=TRACKING_DELTA,
                                  prefix_bits=index.prefix_bits)
                for url in targets]

    def provision_adversary(self, server: SafeBrowsingServer,
                            decisions: Sequence[TrackingDecision] | None = None
                            ) -> None:
        """Push the adversary's Algorithm 1 prefixes into ``server``.

        Through the normal provisioning channel, so clients download them
        alongside the genuine threat entries — indistinguishably, which is
        the paper's point.  No-op when the adversary is disabled.
        """
        if decisions is None:
            decisions = self.tracking_decisions()
        if not decisions:
            return
        list_name = next(descriptor.name
                         for descriptor in lists_for_provider(_PROVIDER)
                         if descriptor.is_url_list)
        for decision in decisions:
            server.push_tracking_prefixes(list_name, decision.expressions)

    def _attach_adversary(self, server: SafeBrowsingServer, *,
                          provision: bool = True
                          ) -> StreamingTrackingDetector | None:
        """Provision the tracking attack and subscribe its online detector.

        Runs *before* the clients are built, so their first update already
        downloads the tracking prefixes alongside the genuine threat
        entries.  The detector hangs off the server's log-observer hook, so
        it sees every full-hash request even though fleet runs rotate the
        bounded log.  With ``provision=False`` (a shard worker running
        against a server replica that was snapshotted *after*
        provisioning), only the detector is attached.
        """
        decisions = self.tracking_decisions()
        if not decisions:
            return None
        if provision:
            self.provision_adversary(server, decisions)
        detector = StreamingTrackingDetector()
        detector.watch_many(decisions)
        return detector.attach(server)

    def run(self, *, server: SafeBrowsingServer | None = None,
            clock: ManualClock | None = None) -> FleetReport:
        """Build the fleet, replay every stream, and measure.

        With no arguments the simulator provisions its own server (and
        adversary) on a fresh clock — the monolithic path.  The parallel
        engine instead passes a ``server`` replica restored from the
        parent's snapshot (already provisioned, adversary prefixes
        included) together with the replica's ``clock``; the simulator then
        only attaches its detector and drives its shard of clients.

        The run is set-up, then one pass per round — every online client
        browses its next batch, the shared clock advances, and churn
        restarts clients between rounds — then accounting.
        """
        with ExitStack() as cleanup:
            state = self._set_up(server, clock, cleanup)
            started = time.perf_counter()
            for round_index in range(state.rounds):
                self._browse_round(state, round_index)
                state.clock.advance(_ROUND_SECONDS)
                if self._churn_due(round_index, state.rounds):
                    self._restart_clients(state, round_index)
        return self._account(state, time.perf_counter() - started)

    def _set_up(self, server: SafeBrowsingServer | None,
                clock: ManualClock | None, cleanup: ExitStack) -> _FleetRun:
        """Provision (or adopt) the server, then build clients and streams.

        What must not outlive the run — the co-hosted service, the restart
        snapshots — is registered on ``cleanup``, so it is released even
        when set-up itself fails.
        """
        config = self.config
        if server is None:
            clock = ManualClock()
            server = self.build_server(clock)
            detector = self._attach_adversary(server)
        else:
            if clock is None:
                raise ExperimentError(
                    "run(server=...) requires the replica's clock")
            detector = self._attach_adversary(server, provision=False)
        # Instruments attach only now, *after* provisioning: setup-time work
        # (blacklisting the corpus, adversary prefixes, the initial storage
        # commit) happens only in the monolithic/parent path, so counting it
        # would break shard-merge ≡ monolithic exactness.
        if config.collect_metrics:
            server.set_metrics(self.metrics)
        if config.transport == "http":
            # Co-host the network service on a loopback ephemeral port, in
            # a thread of this process, over the *same* server core and the
            # *same* logical clock the clients share.  Imported lazily so
            # non-http fleets never touch socket code.
            from repro.safebrowsing.netservice import ServiceThread

            service = ServiceThread(
                server,
                metrics=self.metrics if config.collect_metrics else None,
            ).start()
            cleanup.callback(self._stop_service, service)
            self._http_address = service.address
        clients = [self._build_client(server, clock, index)
                   for index in self.client_indices]
        streams = [self.client_stream(index) for index in self.client_indices]
        profiles = [self.profile_for(index) for index in self.client_indices]
        # Profile-driven reconnect restarts go through the same snapshot
        # machinery as churn, so the temp dir is needed whenever either can
        # fire.
        may_reconnect = any(
            profile.reconnect_restart
            and (profile.connectivity < 1.0 or profile.activity_amplitude > 0.0)
            for profile in profiles)
        snapshot_dir = None
        if config.churn_fraction > 0 or may_reconnect:
            snapshot_dir = Path(cleanup.enter_context(
                tempfile.TemporaryDirectory(prefix="fleet-snapshots-")))
        batch_size = self.scale.fleet_batch_size
        return _FleetRun(
            server=server, clock=clock, detector=detector,
            clients=clients, streams=streams, profiles=profiles,
            ground_truth=(self.planted_ground_truth(streams)
                          if detector else set()),
            rounds=(self.scale.fleet_urls_per_client + batch_size - 1) // batch_size,
            snapshot_dir=snapshot_dir,
            offline_streaks=[0] * len(clients),
        )

    def _browse_round(self, state: _FleetRun, round_index: int) -> None:
        """Every client that is online this round checks its next batch."""
        batch_size = self.scale.fleet_batch_size
        start = round_index * batch_size
        stop = min(start + batch_size, self.scale.fleet_urls_per_client)
        for position, stream in enumerate(state.streams):
            if self._comes_online(state, position, round_index):
                self._check_batch(state, state.clients[position],
                                  stream[start:stop])

    def _comes_online(self, state: _FleetRun, position: int,
                      round_index: int) -> bool:
        """Whether the client at local ``position`` browses this round.

        An offline client (its profile's diurnal cycle or connectivity
        dropped it) simply never browses its batch — phones asleep don't
        retry.  Back online after an outage, a client whose profile says so
        first restarts mobile-style, through the churn/warm-start machinery.
        """
        profile = state.profiles[position]
        tally = state.tally
        if not profile.online(self.config.seed, self.client_indices[position],
                              round_index, _ROUND_SECONDS):
            state.offline_streaks[position] += 1
            tally.offline_client_rounds += 1
            return False
        if (state.offline_streaks[position] and profile.reconnect_restart
                and state.snapshot_dir is not None):
            self._restart_client_at(state, position)
            tally.reconnect_restarts += 1
        state.offline_streaks[position] = 0
        return True

    def _check_batch(self, state: _FleetRun, client: SafeBrowsingClient,
                     batch: Sequence[str]) -> None:
        """One client's lookups for one round, in the configured mode."""
        tally = state.tally
        try:
            if self.config.mode == "batched":
                tally.urls_checked += len(client.check_urls(batch))
            else:
                for url in batch:
                    client.check_url(url)
                    tally.urls_checked += 1
        except TransportError:
            # An injected network failure loses the rest of this client's
            # batch (a real browser would retry later); the fleet carries
            # on, as the deployed service does under partial outages.  Only
            # URLs whose check *completed* count as checked, whichever
            # endpoint failed.
            tally.transport_failures += 1

    def _churn_due(self, round_index: int, rounds: int) -> bool:
        """Whether churn restarts clients after ``round_index``.

        Never after the last round: a restart nothing observes would only
        skew the accounting.
        """
        config = self.config
        next_round = round_index + 1
        return (config.churn_fraction > 0 and next_round < rounds
                and next_round % config.restart_interval == 0)

    def _restart_clients(self, state: _FleetRun, round_index: int) -> None:
        """Churn: restart a deterministic subset of the fleet in place.

        Churn draws are shard-*local* randomness: under the parallel engine
        each shard restarts its own subset, seeded by its
        :attr:`shard_seed` (derived from the fleet seed), so shards don't
        all churn the same local positions.  A monolithic run (``shard_seed
        None``) keeps the legacy fleet-wide seeding.
        """
        config = self.config
        churn_seed = config.seed if self.shard_seed is None else self.shard_seed
        rng = np.random.default_rng([churn_seed, round_index, 0xC4A8])
        size = len(state.clients)
        count = min(size, max(1, round(config.churn_fraction * size)))
        for position in sorted(int(position) for position in
                               rng.choice(size, size=count, replace=False)):
            self._restart_client_at(state, position)

    def _restart_client_at(self, state: _FleetRun, position: int) -> None:
        """Restart the client at local ``position`` in place.

        The old client is torn down (its stats retired so fleet totals
        survive the restart) and replaced by a fresh instance with the same
        name/cookie.  With ``warm_start`` the old client's snapshot is
        saved and restored into the replacement, so its next poll is
        incremental; otherwise the replacement cold-starts empty.  Shared
        by churn restarts and profile-driven reconnect restarts.
        """
        index = self.client_indices[position]
        old = state.clients[position]
        state.retired_stats.append(old.stats)
        replacement = self._build_client(state.server, state.clock, index)
        if self.config.warm_start:
            path = state.snapshot_dir / f"client-{index}.snap"
            old.save_snapshot(path)
            state.tally.warm_start_prefixes_resumed += (
                replacement.restore_snapshot(path))
        state.clients[position] = replacement
        state.tally.client_restarts += 1

    def _stop_service(self, service) -> None:
        """Stop the co-hosted service of an http run, keeping its peak."""
        self.http_peak_connections = service.service.peak_connections
        service.stop()
        self._http_address = None

    def _account(self, state: _FleetRun, elapsed: float) -> FleetReport:
        """Fold the run's counters, stats snapshots and detections into a
        report, reading every sourced field as its metadata declares."""
        config = self.config
        tally = state.tally
        # The one summation path (ClientStats.aggregate) and the one field
        # list (ServerStats.as_dict): report totals, the CLI and the metrics
        # exporter all read the same snapshots, so they can never disagree.
        client_totals = ClientStats.aggregate(
            [client.stats for client in state.clients] + state.retired_stats)
        server_totals = state.server.stats.as_dict()

        if config.collect_metrics:
            # Fleet-level counters are all per-client quantities (never
            # per-round: a shard runs every round, so per-round counters
            # would sum to shards x rounds under a merge).  One inc() per
            # run keeps them off the hot loop entirely.
            fleet = self.metrics
            fleet.gauge("fleet_clients",
                        "Clients this registry's run drove"
                        ).inc(len(state.clients))
            fleet.counter("fleet_urls_checked_total",
                          "URLs the fleet checked").inc(tally.urls_checked)
            fleet.counter("fleet_transport_failures_total",
                          "Client batches lost to injected failures"
                          ).inc(tally.transport_failures)
            fleet.counter("fleet_client_restarts_total",
                          "Client restarts (churn + reconnect)"
                          ).inc(tally.client_restarts)
            fleet.counter("fleet_offline_client_rounds_total",
                          "(client, round) slots skipped offline"
                          ).inc(tally.offline_client_rounds)

        detections = 0
        detected_pairs: set[tuple[int, str]] = set()
        if state.detector is not None:
            client_by_cookie = {client.cookie.value: client_index
                                for client_index, client in
                                zip(self.client_indices, state.clients)}
            detections = state.detector.detections
            detected_pairs = {
                (client_by_cookie[cookie_value], target_url)
                for cookie_value, target_url in state.detector.detected_pairs()
                if cookie_value in client_by_cookie
            }
            state.detector.detach()

        values = asdict(tally)
        for spec in fields(FleetReport):
            source = spec.metadata
            if source["config"]:
                values[spec.name] = getattr(config, spec.name)
            elif source["client"] is not None:
                values[spec.name] = client_totals[source["client"]]
            elif source["server"] is not None:
                values[spec.name] = server_totals[source["server"]]
        return FleetReport._completed(dict(
            values,
            scale=self.scale.name,
            clients=len(state.clients),
            rounds=state.rounds,
            elapsed_seconds=elapsed,
            tracked_targets=len(self.tracked_targets()),
            tracking_detections=detections,
            tracking_true_pairs=len(state.ground_truth),
            tracking_correct_pairs=len(detected_pairs & state.ground_truth),
            tracking_pairs=tuple(sorted(detected_pairs)),
            metrics=self.metrics.snapshot() if config.collect_metrics else None,
        ))


def run_fleet(scale: Scale = SMALL, config: FleetConfig | None = None,
              *, context: ExperimentContext | None = None) -> FleetReport:
    """Run one fleet simulation and return its report."""
    return FleetSimulator(scale, config, context=context).run()


def fleet_comparison(scale: Scale = SMALL, config: FleetConfig | None = None,
                     *, context: ExperimentContext | None = None
                     ) -> tuple[FleetReport, FleetReport]:
    """Run the scalar oracle and the batched mode over identical streams."""
    base = config if config is not None else FleetConfig()
    scalar = run_fleet(scale, replace(base, mode="scalar"), context=context)
    batched = run_fleet(scale, replace(base, mode="batched"), context=context)
    return scalar, batched


def fleet_table(scale: Scale = SMALL, config: FleetConfig | None = None,
                *, context: ExperimentContext | None = None) -> Table:
    """Scalar-vs-batched comparison table (the CLI's ``experiment fleet``)."""
    scalar, batched = fleet_comparison(scale, config, context=context)
    table = Table(
        title=f"Fleet throughput ({scale.name} scale, {scalar.clients} clients)",
        columns=["mode", "URLs", "URLs/s", "full-hash reqs", "prefixes sent",
                 "cache hit rate", "malicious"],
    )
    for report in (scalar, batched):
        table.add_row(
            report.mode,
            report.urls_checked,
            report.urls_per_second,
            report.server_full_hash_requests,
            report.server_prefixes_received,
            report.cache_hit_rate,
            report.malicious_verdicts,
        )
    speedup = (batched.urls_per_second / scalar.urls_per_second
               if scalar.urls_per_second else float("inf"))
    table.add_note(f"batched/scalar speedup: {speedup:.1f}x")
    table.add_note("traffic signatures match: "
                   f"{scalar.traffic_signature() == batched.traffic_signature()}")
    table.add_note(f"transport: {batched.transport}, "
                   f"server cache hit rate: {batched.server_cache_hit_rate:.2f}")
    if batched.adversary:
        table.add_note(
            f"adversary: {batched.tracked_targets} tracked targets, "
            f"{batched.tracking_detected_pairs}/{batched.tracking_true_pairs} "
            f"planted pairs detected, precision {batched.tracking_precision:.2f}, "
            f"recall {batched.tracking_recall:.2f}"
        )
    return table


def fleet_adversary_table(scale: Scale = SMALL, config: FleetConfig | None = None,
                          *, context: ExperimentContext | None = None) -> Table:
    """Streaming-adversary comparison table (``experiment fleet-adversary``).

    Runs the fleet with the online tracking adversary attached, in both
    execution modes over identical streams, and scores each run's
    detections against the planted ground truth.  Coalescing repackages
    *requests*, never the prefixes they reveal, so the detected (client,
    target) pairs — and therefore precision and recall — must be identical
    across modes; the note records that check.
    """
    base = config if config is not None else FleetConfig()
    scalar, batched = fleet_comparison(scale, replace(base, adversary=True),
                                       context=context)
    table = Table(
        title=(f"Streaming tracking adversary over fleet traffic "
               f"({scale.name} scale, {scalar.clients} clients, "
               f"{scalar.tracked_targets} targets)"),
        columns=["mode", "URLs", "entries seen", "detections", "detected pairs",
                 "true pairs", "precision", "recall"],
    )
    for report in (scalar, batched):
        table.add_row(
            report.mode,
            report.urls_checked,
            report.server_full_hash_requests,
            report.tracking_detections,
            report.tracking_detected_pairs,
            report.tracking_true_pairs,
            report.tracking_precision,
            report.tracking_recall,
        )
    # Digest equality certifies the *sets* are identical, not merely their
    # sizes or the derived ratios.
    pairs_match = (scalar.tracking_pair_digest == batched.tracking_pair_digest
                   and scalar.tracking_true_pairs == batched.tracking_true_pairs)
    table.add_note(f"detected pairs mode-independent: {pairs_match}")
    table.add_note("detection is online (log-observer hook + shadow-prefix "
                   "index): the bounded request log may rotate "
                   f"({batched.log_entries_evicted} entries evicted in the "
                   "batched run) without losing detections")
    return table
