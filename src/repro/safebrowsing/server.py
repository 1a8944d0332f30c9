"""The Safe Browsing server core (service layer).

:class:`ServerCore` answers the two requests of the v3 API — list updates and
full-hash lookups — over a :class:`ServerDatabase`, which answers list
membership from its per-list full-hash buckets and orphan prefixes.  It
also plays the adversary of the paper's threat model: every full-hash
request is appended to a request log (cookie, timestamp, prefixes), which is
exactly the information an honest-but-curious (or coerced) provider can
exploit for re-identification and tracking.  The analysis layer consumes that
log; it never peeks inside the client.

Two provisions keep the core memory-stable and fast under fleet traffic:

* a **TTL'd full-hash response cache** keyed by the request's sorted unique
  prefix values (revisit-heavy fleets resend the same popular batches),
  invalidated both by the clock and by any database mutation
  (:attr:`ServerDatabase.version`);
* a **bounded request log**: ``max_log_entries`` rotates the oldest entries
  out (surfaced as :attr:`ServerStats.log_entries_evicted`), so week-long
  fleet runs do not grow the log without bound.  Analysis experiments keep
  the default of ``None`` (unbounded) because they replay the whole log.

Analysis that must see *every* request regardless of log retention registers
a **log observer** (:meth:`ServerCore.add_log_observer`): each
:class:`RequestLogEntry` is published to the observers at ``_log_request``
time, before rotation can drop it.  The streaming tracking detector
(:class:`~repro.analysis.streaming.StreamingTrackingDetector`) is the
canonical observer: it keeps the adversary's view complete over bounded-log
fleet runs, where a post-hoc scan of :attr:`ServerCore.request_log` would
silently under-count.

The endpoint dispatch lives in :mod:`repro.safebrowsing.protocol` (thin
per-endpoint handlers) and the client↔server boundary in
:mod:`repro.safebrowsing.transport`; :class:`SafeBrowsingServer` is the
backward-compatible facade combining the core with the endpoint handlers.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path
from time import perf_counter

from repro.clock import Clock, ManualClock
from repro.observability.metrics import (
    LATENCY_BOUNDS,
    SIZE_BOUNDS,
    MetricsRegistry,
    registry_or_null,
)
from repro.hashing.prefix import Prefix
from repro.safebrowsing.cookie import SafeBrowsingCookie
from repro.safebrowsing.database import ServerDatabase
from repro.safebrowsing.lists import ListDescriptor
from repro.safebrowsing.storage import ServerStorage
from repro.safebrowsing.protocol import (
    FullHashMatch,
    FullHashRequest,
    FullHashResponse,
    ListUpdate,
    UpdateRequest,
    UpdateResponse,
    serve_full_hash,
    serve_update,
)

#: Default interval, in seconds, that the server asks clients to wait before
#: polling for updates again (the deployed service uses about 30 minutes).
DEFAULT_POLL_INTERVAL = 1800.0

#: Default TTL of the server-side full-hash response cache.  Short relative
#: to the clients' 45-minute full-hash cache: the server cache only needs to
#: absorb bursts of identical batches, not long-term state.
DEFAULT_RESPONSE_CACHE_SECONDS = 300.0

#: Default entry bound of the response cache.  Diverse traffic inserts one
#: entry per distinct prefix batch, so without a bound a long fleet run
#: would grow the cache linearly with requests.
DEFAULT_RESPONSE_CACHE_ENTRIES = 4096


@dataclass(frozen=True, slots=True)
class RequestLogEntry:
    """One full-hash request as seen by the provider.

    This tuple — *who* (cookie), *when* (timestamp), *what* (prefixes) — is
    the entire input of the paper's re-identification and tracking analysis.
    """

    cookie: SafeBrowsingCookie
    timestamp: float
    prefixes: tuple[Prefix, ...]


@dataclass
class ServerStats:
    """Aggregate counters for reporting."""

    update_requests: int = 0
    full_hash_requests: int = 0
    prefixes_received: int = 0
    chunks_served: int = 0
    full_hashes_served: int = 0
    clients_seen: set[str] = field(default_factory=set)
    response_cache_hits: int = 0
    response_cache_misses: int = 0
    log_entries_evicted: int = 0

    def as_dict(self) -> dict:
        """Snapshot of every counter, keyed by field name.

        ``clients_seen`` collapses to its cardinality — the only number
        reports ever derive from the set — so the snapshot is plain data
        (JSON-serializable, summable by :class:`FleetReport`).
        """
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["clients_seen"] = len(self.clients_seen)
        return data


@dataclass(slots=True)
class _CachedResponse:
    """Match tuples computed for one prefix batch, keyed by prefix value.

    Only queried values with at least one match have an entry.
    """

    matches_by_prefix: dict[bytes, tuple[FullHashMatch, ...]]
    expires_at: float


class ServerCore:
    """The provider's service layer: update + full-hash handlers.

    Parameters
    ----------
    response_cache_seconds:
        TTL of the full-hash response cache; ``0`` disables caching.
    response_cache_entries:
        Upper bound on cached batches; inserts past it evict from the
        oldest end — expired entries first, then live ones.  A database
        mutation empties the cache on the next full-hash request.
    max_log_entries:
        Upper bound on the request log (``None`` = unbounded).  When the
        bound is hit the oldest entries rotate out and
        :attr:`ServerStats.log_entries_evicted` counts them.
    storage, storage_path:
        Durable layer under the database: a kind from
        :data:`~repro.safebrowsing.storage.STORAGE_KINDS` (``"memory"`` —
        the default dicts-only behaviour — or ``"sqlite"``) or a built
        :class:`~repro.safebrowsing.storage.ServerStorage`.
        ``storage_path`` is the SQLite file (``None`` = in-memory SQLite).
    """

    def __init__(self, descriptors: Iterable[ListDescriptor], *,
                 clock: Clock | None = None,
                 poll_interval: float = DEFAULT_POLL_INTERVAL,
                 prefix_bits: int = 32,
                 response_cache_seconds: float = DEFAULT_RESPONSE_CACHE_SECONDS,
                 response_cache_entries: int = DEFAULT_RESPONSE_CACHE_ENTRIES,
                 max_log_entries: int | None = None,
                 storage: str | ServerStorage = "memory",
                 storage_path: str | Path | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        if max_log_entries is not None and max_log_entries < 1:
            raise ValueError("max_log_entries must be positive (or None)")
        if response_cache_seconds < 0:
            raise ValueError("response_cache_seconds must be non-negative")
        if response_cache_entries < 1:
            raise ValueError("response_cache_entries must be positive")
        self.database = ServerDatabase(descriptors, prefix_bits,
                                       storage=storage,
                                       storage_path=storage_path)
        self.clock = clock if clock is not None else ManualClock()
        self.poll_interval = poll_interval
        self.response_cache_seconds = response_cache_seconds
        self.response_cache_entries = response_cache_entries
        self.max_log_entries = max_log_entries
        self.stats = ServerStats()
        self._request_log: deque[RequestLogEntry] = deque()
        # Key: the sorted unique prefix values of a batch.  Insertion order
        # is expiry order (fixed TTL, non-decreasing clock), which the
        # oldest-first prune relies on.
        self._response_cache: dict[tuple[bytes, ...], _CachedResponse] = {}
        # The database version every cached entry was computed against.
        self._response_cache_version = self.database.version
        self._log_observers: list[Callable[[RequestLogEntry], None]] = []
        self.set_metrics(metrics)

    def set_metrics(self, metrics: MetricsRegistry | None) -> None:
        """(Re)bind this server's instruments to ``metrics``.

        Fleet runs call this *after* provisioning so that setup-time work
        (blacklisting the corpus, the initial storage commit) is never
        counted — a requirement for shard-merged registries to equal a
        monolithic run's.  Also rebinds the underlying database's storage
        instruments.  ``None`` binds the shared null registry (no-op path).
        """
        metrics = registry_or_null(metrics)
        self._metrics_enabled = metrics.enabled
        requests = metrics.counter(
            "server_requests_total", "Requests the server core processed",
            labels=("endpoint",))
        self._m_update_requests = requests.labels(endpoint="downloads")
        self._m_full_hash_requests = requests.labels(endpoint="gethash")
        self._m_chunks_served = metrics.counter(
            "server_chunks_served_total", "Chunks served by update responses")
        self._m_prefixes_received = metrics.counter(
            "server_prefixes_received_total",
            "Prefixes carried by full-hash requests")
        self._m_full_hashes_served = metrics.counter(
            "server_full_hashes_served_total",
            "Full digests returned to clients")
        cache = metrics.counter(
            "server_response_cache_total",
            "Full-hash response cache outcomes", labels=("result",))
        self._m_cache_hits = cache.labels(result="hit")
        self._m_cache_misses = cache.labels(result="miss")
        self._m_log_evicted = metrics.counter(
            "server_log_entries_evicted_total",
            "Request-log entries rotated out by the retention bound")
        self._m_batch_size = metrics.histogram(
            "server_full_hash_batch_size",
            "Prefixes per full-hash request", bounds=SIZE_BOUNDS)
        self._m_match_wall = metrics.histogram(
            "server_full_hash_match_wall_seconds",
            "Wall-clock time matching one full-hash batch",
            bounds=LATENCY_BOUNDS)
        self.database.set_metrics(metrics)

    # -- provisioning ---------------------------------------------------------

    def blacklist(self, list_name: str, expressions: Iterable[str]) -> list[Prefix]:
        """Add canonical expressions to a list and commit them as a chunk."""
        database = self.database[list_name]
        prefixes = database.add_expressions(expressions)
        database.commit_pending()
        return prefixes

    def unblacklist(self, list_name: str, expressions: Iterable[str]) -> None:
        """Remove expressions from a list (served to clients as a sub chunk)."""
        database = self.database[list_name]
        for expression in expressions:
            database.remove_expression(expression)
        database.commit_pending()

    def insert_orphan_prefixes(self, list_name: str, prefixes: Iterable[Prefix]) -> None:
        """Insert prefixes with no full digest (paper Section 7.2)."""
        database = self.database[list_name]
        for prefix in prefixes:
            database.add_orphan_prefix(prefix)
        database.commit_pending()

    def push_tracking_prefixes(self, list_name: str, expressions: Iterable[str]) -> list[Prefix]:
        """Insert tracking prefixes chosen by Algorithm 1.

        Functionally identical to :meth:`blacklist` — which is the paper's
        point: nothing in the protocol distinguishes a genuine threat entry
        from a tracking entry.  Kept as a separate method so experiment code
        reads explicitly.
        """
        return self.blacklist(list_name, expressions)

    # -- request processing (called by the protocol endpoint handlers) --------

    def process_update(self, request: UpdateRequest) -> UpdateResponse:
        """Serve the chunks a client is missing for every list it asked about."""
        self.stats.update_requests += 1
        self._m_update_requests.inc()
        self.stats.clients_seen.add(request.cookie.value)

        updates: list[ListUpdate] = []
        for state in request.states:
            database = self.database[state.list_name]
            missing_add, missing_sub = database.chunks_after(
                state.add_chunks.numbers, state.sub_chunks.numbers
            )
            served = len(missing_add) + len(missing_sub)
            self.stats.chunks_served += served
            self._m_chunks_served.inc(served)
            updates.append(
                ListUpdate(
                    list_name=state.list_name,
                    add_chunks=tuple(missing_add),
                    sub_chunks=tuple(missing_sub),
                )
            )
        return UpdateResponse(
            updates=tuple(updates),
            next_poll_seconds=self.poll_interval,
            timestamp=self.clock.now(),
        )

    def process_full_hash(self, request: FullHashRequest) -> FullHashResponse:
        """Serve the full digests for the queried prefixes, and log the request.

        Requests may carry a whole batch of prefixes (the batched client
        coalesces every uncached hit of a page-load batch into one request);
        the database scan runs once per *unique* prefix — or not at all when
        an identical batch is still warm in the response cache — and the
        response keeps the request's prefix order.
        """
        self.stats.full_hash_requests += 1
        self.stats.prefixes_received += len(request.prefixes)
        self._m_full_hash_requests.inc()
        self._m_prefixes_received.inc(len(request.prefixes))
        self._m_batch_size.observe(len(request.prefixes))
        self.stats.clients_seen.add(request.cookie.value)

        timestamp = self.clock.now()
        self._log_request(
            RequestLogEntry(cookie=request.cookie, timestamp=timestamp,
                            prefixes=tuple(request.prefixes))
        )

        if self._metrics_enabled:
            start = perf_counter()
            matches_by_prefix = self._matches_for_batch(request.prefixes,
                                                        timestamp)
            self._m_match_wall.observe(perf_counter() - start)
        else:
            matches_by_prefix = self._matches_for_batch(request.prefixes,
                                                        timestamp)
        matches: list[FullHashMatch] = []
        found = matches_by_prefix.get
        for prefix in request.prefixes:
            matches.extend(found(prefix.value, ()))
        self.stats.full_hashes_served += len(matches)
        self._m_full_hashes_served.inc(len(matches))
        return FullHashResponse(matches=tuple(matches), timestamp=timestamp)

    # -- full-hash response cache ---------------------------------------------

    def _matches_for_batch(self, prefixes: Sequence[Prefix],
                           now: float) -> dict[bytes, tuple[FullHashMatch, ...]]:
        """Match tuples per unique prefix value, served from the TTL'd cache.

        A cached entry is valid only while its TTL holds *and* the database
        has not been mutated since it was computed, so caching can never
        change an answer — only skip recomputing it.  Once the database
        version moves every entry is dead, so the whole cache is dropped
        then rather than left to be pruned entry by entry.

        The batch is deduplicated by raw prefix bytes, and the key is the
        *sorted* unique values: two batches carrying the same prefixes in
        different orders share one entry, and the response is rebuilt per
        request in the request's own order.  Values of different widths
        have different lengths, so they never collide.  An expired entry
        is recomputed and re-inserted at the end, behind every entry that
        expires before it.
        """
        unique = {prefix.value: prefix for prefix in prefixes}
        key = tuple(sorted(unique))
        ttl = self.response_cache_seconds
        cache = self._response_cache
        if ttl > 0:
            version = self.database.version
            if version != self._response_cache_version:
                cache.clear()
                self._response_cache_version = version
            entry = cache.get(key)
            if entry is not None:
                if entry.expires_at > now:
                    self.stats.response_cache_hits += 1
                    self._m_cache_hits.inc()
                    return entry.matches_by_prefix
                del cache[key]
            self.stats.response_cache_misses += 1
            self._m_cache_misses.inc()

        # Variable-width matching, batched per list: a prefix shorter than
        # the stored width (a widened privacy query) answers with the
        # superset of every compatible bucket; the stored width stays an
        # exact bucket lookup.  Handing each database the whole batch lets
        # it resolve every widened query's bucket range in one vectorized
        # search instead of scanning per prefix.
        queries = tuple(unique.values())
        collected: dict[bytes, list[FullHashMatch]] = {}
        for database in self.database:
            name = database.descriptor.name
            for prefix, found in zip(
                    queries, database.full_hashes_matching_many(queries)):
                if found:
                    collected.setdefault(prefix.value, []).extend([
                        FullHashMatch(name, prefix, full_hash)
                        for full_hash in found])
        matches_by_prefix = {value: tuple(found)
                             for value, found in collected.items()}
        if ttl > 0:
            if len(cache) >= self.response_cache_entries:
                self._prune_response_cache(now)
            cache[key] = _CachedResponse(
                matches_by_prefix=matches_by_prefix,
                expires_at=now + ttl,
            )
        return matches_by_prefix

    def _prune_response_cache(self, now: float) -> None:
        """Evict from the oldest end until the next insert fits.

        Called before an insert would exceed the bound, so the cache never
        grows past ``response_cache_entries`` no matter how diverse the
        traffic is.  Entries sit in expiry order, so expired ones are at
        the front: popping stops at the first live entry once there is
        room, which costs O(evicted), not O(cache).
        """
        cache = self._response_cache
        while cache:
            key, entry = next(iter(cache.items()))
            if (entry.expires_at > now
                    and len(cache) < self.response_cache_entries):
                break
            del cache[key]

    def clear_response_cache(self) -> None:
        """Drop every cached full-hash response (TTL/version do this lazily)."""
        self._response_cache.clear()

    # -- the provider's (adversary's) view ------------------------------------

    def add_log_observer(self, observer: Callable[[RequestLogEntry], None]) -> None:
        """Publish every future :class:`RequestLogEntry` to ``observer``.

        Observers are invoked synchronously at ``_log_request`` time, before
        the bounded log can rotate the entry out, so an observer's view is
        complete even when :attr:`request_log` is a rotating window.  They
        must not mutate the entry (it is frozen) and should be cheap: they
        run on the full-hash request path.
        """
        self._log_observers.append(observer)

    def remove_log_observer(self, observer: Callable[[RequestLogEntry], None]) -> None:
        """Stop publishing log entries to ``observer`` (idempotent)."""
        try:
            self._log_observers.remove(observer)
        except ValueError:
            pass

    def _log_request(self, entry: RequestLogEntry) -> None:
        for observer in tuple(self._log_observers):
            observer(entry)
        if (self.max_log_entries is not None
                and len(self._request_log) >= self.max_log_entries):
            overflow = len(self._request_log) - self.max_log_entries + 1
            for _ in range(overflow):
                self._request_log.popleft()
            self.stats.log_entries_evicted += overflow
            self._m_log_evicted.inc(overflow)
        self._request_log.append(entry)

    @property
    def request_log(self) -> Sequence[RequestLogEntry]:
        """Every retained full-hash request, in arrival order.

        With ``max_log_entries`` set this is a rotating window over the most
        recent requests; :attr:`ServerStats.log_entries_evicted` counts what
        rotated out.
        """
        return tuple(self._request_log)

    def requests_from(self, cookie: SafeBrowsingCookie) -> list[RequestLogEntry]:
        """The retained requests attributable to one client via its cookie."""
        return [entry for entry in self._request_log if entry.cookie == cookie]

    def clear_request_log(self) -> None:
        """Forget the recorded requests (used between experiment runs)."""
        self._request_log.clear()

    def list_names(self) -> tuple[str, ...]:
        """Names of the lists this server serves."""
        return self.database.list_names


class SafeBrowsingServer(ServerCore):
    """In-memory Safe Browsing provider (Google- or Yandex-shaped).

    The historical entry point: a :class:`ServerCore` whose ``handle_*``
    methods route through the thin per-endpoint handlers of
    :mod:`repro.safebrowsing.protocol` — exactly the path every
    :class:`~repro.safebrowsing.transport.Transport` takes, so calling the
    server directly and calling it through a transport are indistinguishable
    to the core.
    """

    def handle_update(self, request: UpdateRequest) -> UpdateResponse:
        """Serve an update request (the ``downloads`` endpoint)."""
        return serve_update(self, request)

    def handle_full_hash(self, request: FullHashRequest) -> FullHashResponse:
        """Serve a full-hash request (the ``gethash`` endpoint)."""
        return serve_full_hash(self, request)
