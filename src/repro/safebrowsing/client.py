"""The Safe Browsing client (browser side).

:class:`SafeBrowsingClient` reproduces the lookup flow of the paper's
Figure 3:

1. keep a local database of 32-bit prefixes for every subscribed list,
   refreshed through the chunked update protocol;
2. to check a URL, canonicalize it and generate its decompositions;
3. hash every decomposition and look the prefixes up locally; if nothing
   matches, the URL is safe and *nothing* is sent to the provider;
4. on a hit, send the matching prefixes (with the client's cookie) to the
   full-hash endpoint, and flag the URL as malicious only when one of the
   returned full digests equals the full digest of one of its
   decompositions;
5. cache returned full digests until the next update discards them, so
   repeated visits do not re-contact the server.

The local store backend is pluggable (delta-coded table by default; Bloom
filter, raw array or packed sorted array otherwise) to support the paper's
Table 2 comparison and the false-positive experiments.

One path runs this flow: :meth:`SafeBrowsingClient.check_urls` checks a
whole page-load batch — deduplicating and memoizing the pure derivations,
probing the stores with one bitmask query per list, and resolving every
uncached full-hash lookup in one exchange — and
:meth:`SafeBrowsingClient.lookup` is its one-URL case.

Everything the client sends crosses a
:class:`~repro.safebrowsing.transport.Transport`.  Constructing a client
with a bare server wraps it in the in-process transport (direct dispatch,
the historical behaviour); passing ``transport=`` swaps in e.g. the
simulated network, with no other change to the lookup flow.

Every full-hash fetch — the moment a lookup must resolve uncached
locally-hitting prefixes — is a
:class:`~repro.safebrowsing.privacy.FullHashExchange` mediated by the
client's **privacy policy** (:mod:`repro.safebrowsing.privacy`), which
decides what actually crosses the wire (padded with dummies, one prefix at
a time, widened, mixed).  Policies may reshape traffic but never verdicts;
a client built without one runs :class:`~repro.safebrowsing.privacy.NoPolicy`,
the undefended single request.  Each URL's ``sent_prefixes`` is what the
provider saw on its behalf (see :meth:`FullHashExchange.credit`).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from pathlib import Path
from time import perf_counter

from repro.clock import Clock, ManualClock
from repro.datastructures.memory import DEFAULT_STORE_BACKEND, STORE_FACTORIES
from repro.datastructures.store import PrefixStore
from repro.exceptions import UpdateError
from repro.hashing.digests import FullHash, _valid_full_hash, digests_of
from repro.hashing.prefix import Prefix, PrefixRun
from repro.observability.metrics import (
    LATENCY_BOUNDS,
    SIZE_BOUNDS,
    MetricsRegistry,
    registry_or_null,
)
from repro.safebrowsing.backoff import UpdateScheduler
from repro.safebrowsing.chunks import ChunkKind, ChunkRange
from repro.safebrowsing.cookie import CookieJar, SafeBrowsingCookie
from repro.safebrowsing.privacy import (
    FullHashExchange,
    NoPolicy,
    PrivacyPolicy,
    QueryGroup,
    build_policy,
)
from repro.safebrowsing.protocol import (
    ClientStats,
    FullHashRequest,
    FullHashResponse,
    ListState,
    LookupResult,
    UpdateRequest,
    UpdateResponse,
    Verdict,
)
from repro.safebrowsing.server import DEFAULT_POLL_INTERVAL, ServerCore
from repro.safebrowsing.transport import InProcessTransport, Transport
from repro.urls.canonicalize import canonicalize
from repro.urls.decompose import decompositions

#: Upper bound on each per-URL memo of :meth:`SafeBrowsingClient.check_urls`
#: (derivations and store-membership answers).  Memoizing them cannot change
#: a verdict — derivations are pure, and membership memos are invalidated on
#: every applied update — so the bound only caps memory.
PLAN_CACHE_SIZE = 4096


@dataclass(frozen=True, slots=True)
class ClientConfig:
    """Tunable behaviour of a Safe Browsing client.

    Attributes
    ----------
    store_backend:
        A key of :data:`~repro.datastructures.memory.STORE_FACTORIES`:
        ``"delta-coded"`` (the deployed choice), ``"bloom"`` (the pre-2012
        Chromium choice) or ``"raw"`` (the packed sorted array, with
        batched lookups).  With numpy installed, ``"numpy"`` adds the
        vectorized variant of ``"raw"`` (one ``searchsorted`` per batch
        instead of a Python bisect loop); numpy is optional, so that name
        exists only when it is importable.  The default is
        :data:`~repro.datastructures.memory.DEFAULT_STORE_BACKEND`:
        ``"numpy"`` when available, ``"raw"`` otherwise.
    prefix_bits:
        Width of the local prefixes (32 in the deployed service).
    full_hash_cache_seconds:
        How long returned full digests are cached.
    auto_update:
        Whether :meth:`SafeBrowsingClient.lookup` refreshes the local
        database when the server-mandated poll interval has elapsed.
    update_jitter_fraction:
        Deterministic jitter applied to the update schedule, as a fraction
        of each delay.  Zero (the default) keeps the schedule exact for
        tests; fleet simulations use a non-zero fraction so clients sharing
        one clock desynchronize, as the deployed clients do.
    """

    store_backend: str = DEFAULT_STORE_BACKEND
    prefix_bits: int = 32
    full_hash_cache_seconds: float = 2700.0
    auto_update: bool = True
    update_jitter_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.store_backend not in STORE_FACTORIES:
            raise UpdateError(
                f"unknown store backend {self.store_backend!r}; "
                f"expected one of {sorted(STORE_FACTORIES)}"
            )


@dataclass
class _CachedFullHashes:
    """Full digests cached for one prefix, with the list each came from."""

    entries: tuple[tuple[str, FullHash], ...]
    expires_at: float

    @property
    def full_hashes(self) -> tuple[FullHash, ...]:
        """The cached digests, list attribution stripped."""
        return tuple(full_hash for _, full_hash in self.entries)

    def lists_for(self, digest: FullHash) -> tuple[str, ...]:
        """Names of the lists that served ``digest``, first-seen order."""
        return tuple(dict.fromkeys(name for name, full_hash in self.entries
                                   if full_hash == digest))


@dataclass
class _ListState:
    """Client-side state for one subscribed list."""

    store: PrefixStore
    add_chunks: ChunkRange = field(default_factory=ChunkRange)
    sub_chunks: ChunkRange = field(default_factory=ChunkRange)


class SafeBrowsingClient:
    """A browser-side Safe Browsing implementation."""

    def __init__(self, server: ServerCore | Transport | None = None,
                 name: str = "client", *,
                 transport: Transport | None = None,
                 lists: Iterable[str] | None = None,
                 config: ClientConfig | None = None,
                 clock: Clock | None = None,
                 cookie: SafeBrowsingCookie | None = None,
                 cookie_jar: CookieJar | None = None,
                 privacy_policy: PrivacyPolicy | str | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        """Build a client bound to one server (or transport).

        Parameters
        ----------
        server:
            The provider to talk to — a bare :class:`ServerCore` (wrapped
            in the in-process transport) or an explicit
            :class:`~repro.safebrowsing.transport.Transport`.
        name:
            Stable client name; seeds the cookie, the update scheduler and
            any per-client policy RNG, so runs are reproducible.
        transport:
            Alternative to ``server``: the boundary to send through
            (mutually exclusive with passing a transport as ``server``).
        lists:
            List names to subscribe to; defaults to every URL-keyed
            (shavar) list the server serves.
        config:
            A :class:`ClientConfig` (store backend, prefix width, cache
            and scheduling knobs); defaults apply otherwise.
        clock:
            Time source; defaults to the server's clock so client and
            server share one logical timeline.
        cookie / cookie_jar:
            The Safe Browsing cookie to attach to every request, or a jar
            to issue one from (derived deterministically from ``name``).
        privacy_policy:
            A :class:`~repro.safebrowsing.privacy.PrivacyPolicy` instance
            or registry name; ``None`` means
            :class:`~repro.safebrowsing.privacy.NoPolicy`, the undefended
            client.
        """
        # Everything the client sends crosses a Transport.  Passing a bare
        # server (the historical signature) wraps it in the in-process
        # transport, which preserves direct-call behaviour exactly.
        if transport is None:
            if isinstance(server, Transport):
                transport = server
            elif server is not None:
                transport = InProcessTransport(server)
            else:
                raise UpdateError("a client needs a server or a transport")
        elif isinstance(server, Transport):
            raise UpdateError("pass either a transport or a server, not both")
        elif server is not None and transport.server is not server:
            raise UpdateError("transport is bound to a different server")
        self.transport = transport
        # A remote transport (an HTTP transport pointed at another process)
        # has no local core to read configuration from: ``self.server`` is
        # then None and the remote-defaults branches below apply.
        self.server = transport.server
        server = self.server
        self.name = name
        self.config = config if config is not None else ClientConfig()
        # The privacy-defense hook: every full-hash exchange is mediated by
        # the policy.  A name is resolved through the policy registry.
        # Policy instances are stateful — one per client, never shared.
        if privacy_policy is None:
            privacy_policy = NoPolicy()
        elif isinstance(privacy_policy, str):
            privacy_policy = build_policy(privacy_policy, seed=f"client:{name}")
        # Fail loudly now rather than run a defense that silently degrades
        # to a no-op at this client's prefix width.
        privacy_policy.validate_for(self.config.prefix_bits)
        self.privacy_policy = privacy_policy
        if clock is not None:
            self.clock = clock
        elif server is not None:
            self.clock = server.clock
        else:
            self.clock = ManualClock()
        if cookie is not None:
            self.cookie = cookie
        else:
            jar = cookie_jar if cookie_jar is not None else CookieJar()
            self.cookie = jar.issue(name)

        if lists is None:
            if server is None:
                raise UpdateError(
                    "a client on a remote transport cannot discover the "
                    "served lists; pass lists= explicitly")
            subscribed = [
                database.descriptor.name
                for database in server.database
                if database.descriptor.is_url_list
            ]
        else:
            # Accept names or ListDescriptors (GOOGLE_LISTS et al.) —
            # a descriptor must not leak into ListState.list_name, where
            # only the wire codec would finally choke on it.
            subscribed = [
                entry if isinstance(entry, str) else entry.name
                for entry in lists
            ]
        backend = STORE_FACTORIES[self.config.store_backend]
        self._lists: dict[str, _ListState] = {
            list_name: _ListState(store=backend(bits=self.config.prefix_bits))
            for list_name in subscribed
        }
        self._full_hash_cache: dict[Prefix, _CachedFullHashes] = {}
        # Memos of pure URL/expression derivations, bounded by
        # PLAN_CACHE_SIZE.  They hold digests and prefixes as raw bytes:
        # Prefix objects are built only for prefixes the local stores hold,
        # and FullHash objects only for the expressions behind those hits.
        self._plan_cache: dict[str, tuple[str, tuple[str, ...], tuple[bytes, ...]]] = {}
        self._hash_cache: dict[str, bytes] = {}
        # Local-store membership memos.  A hit keeps its Prefix, so revisits
        # reuse it.  Membership only changes when an update applies chunks,
        # so both are dropped whenever update() applies anything (alongside
        # the full-hash cache).
        self._known_hits: dict[bytes, Prefix] = {}
        self._known_misses: set[bytes] = set()
        # Memoized results for URLs with *no* local hit: such a result is a
        # pure function of the URL and the local stores (no server state, no
        # cache expiry is involved), so it stays valid until the next applied
        # update.  LookupResult is frozen, so sharing instances is safe.
        self._safe_result_cache: dict[str, LookupResult] = {}
        # Each client owns its scheduler, seeded by its name: clients sharing
        # one clock keep independent (and, with jitter, desynchronized)
        # update/backoff schedules.
        self.scheduler = UpdateScheduler(
            poll_interval=(DEFAULT_POLL_INTERVAL if server is None
                           else server.poll_interval),
            jitter_fraction=self.config.update_jitter_fraction,
            seed=f"client:{name}",
        )
        self.stats = ClientStats()
        # Observability: the registry reads the exported ClientStats fields;
        # the other children are bound once here (bound-method calls only).  With no registry the shared no-op child
        # is bound and the wall-clock measurement blocks are skipped
        # entirely (guarded by _metrics_enabled).
        metrics = registry_or_null(metrics)
        self._metrics_enabled = metrics.enabled
        metrics.register_stats(self.stats)
        self._m_check_batches = metrics.counter(
            "client_check_batches_total",
            "check_urls calls, each lookup counted as a one-URL batch")
        self._m_full_hash_batch_size = metrics.histogram(
            "client_full_hash_batch_size",
            "Prefixes per client full-hash request", bounds=SIZE_BOUNDS)
        self._m_lookup_wall = metrics.histogram(
            "client_lookup_wall_seconds",
            "Wall-clock time of one lookup/check_urls call",
            bounds=LATENCY_BOUNDS)
        self._m_update_wall = metrics.histogram(
            "client_update_wall_seconds",
            "Wall-clock time of one update poll", bounds=LATENCY_BOUNDS)

    # -- update protocol ------------------------------------------------------

    @property
    def subscribed_lists(self) -> tuple[str, ...]:
        """Names of the lists the client keeps locally."""
        return tuple(self._lists)

    def needs_update(self) -> bool:
        """Whether the update scheduler allows a poll right now."""
        return self.scheduler.can_update(self.clock.now())

    def update(self) -> int:
        """Refresh the local database; returns the number of chunks applied.

        A failed update — whether the transport raised or the response could
        not be applied — is recorded on the client's :class:`UpdateScheduler`,
        so retries back off exponentially as the deployed clients do.
        """
        if not self._metrics_enabled:
            return self._update_impl()
        start = perf_counter()
        try:
            return self._update_impl()
        finally:
            self._m_update_wall.observe(perf_counter() - start)

    def _update_impl(self) -> int:
        states = tuple(
            ListState(
                list_name=list_name,
                add_chunks=ChunkRange(set(state.add_chunks.numbers)),
                sub_chunks=ChunkRange(set(state.sub_chunks.numbers)),
            )
            for list_name, state in self._lists.items()
        )
        request = UpdateRequest(cookie=self.cookie, states=states,
                                timestamp=self.clock.now())
        self.stats.update_requests += 1
        try:
            response = self.transport.send_update(request)
        except Exception:
            self.scheduler.record_error(self.clock.now())
            raise
        # Sync-bandwidth accounting: every prefix carried by the response's
        # chunks counts, whether or not applying them later succeeds — the
        # bytes crossed the wire either way.  The warm-start benchmark
        # compares this counter between cold and restored clients.
        for update in response.updates:
            for chunk in update.add_chunks + update.sub_chunks:
                self.stats.chunks_received += 1
                self.stats.update_prefixes_received += len(chunk.prefixes)
        try:
            applied = self._apply_update(response)
        except Exception:
            # The response may have been partially applied before failing, so
            # the stores are in an unknown state: every store-derived memo
            # must go or lookups would serve pre-failure answers.
            self._invalidate_store_memos()
            self.scheduler.record_error(self.clock.now())
            raise
        if applied:
            # Updates invalidate cached full hashes (paper Section 2.2.1:
            # "they are locally stored until an update discards them") and
            # the membership memos (the stores just changed).
            self._invalidate_store_memos()
        self.scheduler.record_success(self.clock.now(), response.next_poll_seconds)
        return applied

    def _invalidate_store_memos(self) -> None:
        """Drop every memo whose answers depend on the local stores."""
        self._full_hash_cache.clear()
        self._known_hits.clear()
        self._known_misses.clear()
        self._safe_result_cache.clear()

    def _apply_update(self, response: UpdateResponse) -> int:
        """Apply the chunks of one update response to the local stores."""
        applied = 0
        for update in response.updates:
            state = self._lists.get(update.list_name)
            if state is None:
                raise UpdateError(f"server sent an update for an unsubscribed list "
                                  f"{update.list_name!r}")
            for chunk in update.add_chunks:
                if chunk.kind is not ChunkKind.ADD:
                    raise UpdateError("add chunk with wrong kind")
                state.store.update(chunk.prefixes)
                state.add_chunks.add(chunk.number)
                applied += 1
            for chunk in update.sub_chunks:
                if chunk.kind is not ChunkKind.SUB:
                    raise UpdateError("sub chunk with wrong kind")
                try:
                    state.store.discard_many(chunk.prefixes)
                except Exception as exc:
                    raise UpdateError(
                        f"store backend {self.config.store_backend!r} cannot apply "
                        f"sub chunks: {exc}"
                    ) from exc
                state.sub_chunks.add(chunk.number)
                applied += 1
        return applied

    # -- local database -------------------------------------------------------

    def local_database_size(self) -> int:
        """Total number of prefixes across all local stores."""
        return sum(len(state.store) for state in self._lists.values())

    def local_memory_bytes(self) -> int:
        """Serialized size of the local stores (Table 2 metric)."""
        return sum(state.store.memory_bytes() for state in self._lists.values())

    # -- persistence (snapshot + warm start) -----------------------------------

    def save_snapshot(self, path: str | Path) -> Path:
        """Persist the local database (stores + chunk ranges) to ``path``.

        Writes the client snapshot file of :mod:`repro.safebrowsing.snapshot`
        (SQLite, one checksummed row per list); volatile state (full-hash
        cache, memos, scheduler backoff) is not persisted.  Returns the path
        written.
        """
        from repro.safebrowsing.snapshot import save_client_snapshot

        return save_client_snapshot(self, path)

    def restore_snapshot(self, path: str | Path) -> int:
        """Warm-start this client from a snapshot written by :meth:`save_snapshot`.

        The snapshot must match this client's store backend, prefix width
        and subscribed lists (:class:`~repro.exceptions.SnapshotError`
        otherwise — never a partial load).  Afterwards the next
        :meth:`update` fetches only the chunks committed since the snapshot,
        which is the whole point: a restarted client resyncs incrementally
        instead of re-downloading its lists.  Returns the number of
        restored prefixes.
        """
        from repro.safebrowsing.snapshot import restore_client_snapshot

        return restore_client_snapshot(self, path)

    # -- lookup flow (Figure 3) ----------------------------------------------

    def lookup(self, url: str) -> LookupResult:
        """Check one URL, contacting the server only on a local hit.

        The one-URL case of :meth:`check_urls`: one flow serves both.
        """
        return self.check_urls((url,))[0]

    def check_urls(self, urls: Sequence[str]) -> list[LookupResult]:
        """Check a batch of URLs, amortizing every stage of the pipeline.

        Each URL gets the verdict a lone lookup would give it (at a fixed
        clock), but the work is done batch-wide:

        * repeated URLs are canonicalized and decomposed once;
        * every *unique* decomposition across the batch is hashed once
          (URLs sharing a host share their domain-root decompositions);
        * local stores are probed with one :meth:`PrefixStore.contains_many`
          bitmask query per list over one packed :class:`PrefixRun` of the
          unique prefixes, and :class:`Prefix` objects are built only for
          the prefixes the stores hold;
        * all uncached full-hash lookups go through one policy-mediated
          exchange instead of one per hitting URL.

        A URL's ``sent_prefixes`` are the wire prefixes credited to it in
        send order, each wire prefix to exactly one URL (see
        :meth:`FullHashExchange.credit`).  It is ``served_from_cache`` when
        every local hit was cached before the call or sent for an earlier
        URL of the batch.
        """
        if not urls:
            # An empty batch checks nothing; it must not poll either.
            return []
        if not self._metrics_enabled:
            return self._check_urls_impl(urls)
        start = perf_counter()
        try:
            return self._check_urls_impl(urls)
        finally:
            self._m_lookup_wall.observe(perf_counter() - start)

    def _check_urls_impl(self, urls: Sequence[str]) -> list[LookupResult]:
        if self.config.auto_update and self.needs_update():
            self.update()
        self.stats.urls_checked += len(urls)
        self._m_check_batches.inc()

        # Stage 1: serve memoized no-hit results outright; resolve a plan
        # (canonical form, decompositions, deduplicated prefixes) for the rest.
        safe_cache = self._safe_result_cache
        plan_cache = self._plan_cache
        results: list[LookupResult | None] = [None] * len(urls)
        pending: list[tuple[int, str, tuple[str, tuple[str, ...], tuple[bytes, ...]]]] = []
        for position, url in enumerate(urls):
            memoized = safe_cache.get(url)
            if memoized is not None:
                results[position] = memoized
                continue
            plan = plan_cache.get(url)
            if plan is None:
                plan = self._build_plan(url)
            pending.append((position, url, plan))

        # Stage 2: probe the list stores with one packed run of every prefix
        # whose membership is not already memoized from an earlier batch.
        known_hits = self._known_hits
        known_misses = self._known_misses
        unknown: dict[bytes, None] = {}
        for _, _, (_, _, prefixes) in pending:
            for raw in prefixes:
                if raw not in known_misses and raw not in known_hits:
                    unknown[raw] = None
        if unknown:
            bits = self.config.prefix_bits
            probes = list(unknown)
            run = PrefixRun.from_packed(b"".join(probes), bits)
            hit_mask = 0
            for state in self._lists.values():
                hit_mask |= state.store.contains_many(run)
            # Bit i of the mask is character i of the reversed binary string.
            flags = f"{hit_mask:0{len(probes)}b}"[::-1]
            for raw, flag in zip(probes, flags):
                if flag == "1":
                    known_hits[raw] = Prefix(raw, bits)
                else:
                    known_misses.add(raw)

        # Stage 3: walk the batch in order.  URLs with no local hit memoize a
        # shared SAFE result; hitting URLs split their prefixes into cached /
        # to-request.  Every URL keeps all its uncached hits: a policy may
        # withhold a prefix for one URL (the one-prefix early stop) that a
        # later URL still needs, so the exchange dedups the wire instead.
        # ``requested`` holds what earlier URLs of the batch already need.
        requested: set[Prefix] = set()
        hitting = []
        hit_keys = known_hits.keys()
        for position, url, plan in pending:
            canonical, decomps, prefixes = plan
            if hit_keys.isdisjoint(prefixes):
                result = LookupResult(
                    url=url, canonical_url=canonical, verdict=Verdict.SAFE,
                    decompositions=decomps,
                )
                safe_cache[url] = result
                results[position] = result
                continue
            local_hits = tuple(known_hits[raw] for raw in prefixes
                               if raw in known_hits)
            _, missing = self._split_cached(local_hits)
            first_to_need = any(prefix not in requested for prefix in missing)
            requested.update(missing)
            hitting.append((position, url, canonical, decomps, local_hits,
                            tuple(missing), first_to_need,
                            self._hit_hashes(decomps, local_hits)))

        # Stage 4: one policy-mediated exchange carrying the per-URL needs.
        groups = []
        for _, _, _, _, local_hits, missing, _, hashes in hitting:
            if not missing:
                continue
            digest_by_prefix: dict[Prefix, FullHash] = {}
            for _, digest, prefix in hashes:
                digest_by_prefix.setdefault(prefix, digest)
            groups.append(QueryGroup(prefixes=local_hits, missing=missing,
                                     digest_by_prefix=digest_by_prefix))
        exchange = self._run_policy_exchange(groups) if groups else None
        credits = iter(exchange.credit() if exchange else ())

        # Stage 5: verdicts for the hitting URLs from the (now warm) cache.
        for (position, url, canonical, decomps, local_hits, missing,
             first_to_need, hashes) in hitting:
            self.stats.local_hits += 1
            sent: tuple[Prefix, ...] = ()
            served = True
            if missing:
                sent = next(credits)
                served = not first_to_need and all(
                    exchange.attributed_to(prefix) for prefix in missing)
            if served:
                self.stats.cache_hits += 1
            matched_lists, matched_expressions = self._match_digests(hashes)
            verdict = Verdict.MALICIOUS if matched_expressions else Verdict.SAFE
            if verdict is Verdict.MALICIOUS:
                self.stats.malicious_verdicts += 1
            results[position] = LookupResult(
                url=url,
                canonical_url=canonical,
                verdict=verdict,
                decompositions=decomps,
                local_hits=local_hits,
                sent_prefixes=sent,
                matched_lists=matched_lists,
                matched_expressions=matched_expressions,
                served_from_cache=served,
            )
        self._trim_memos()
        return results

    def _build_plan(self, url: str) -> tuple[str, tuple[str, ...], tuple[bytes, ...]]:
        """Memoize the pure derivations of one URL.

        The plan holds the URL's deduplicated prefixes as raw bytes, in
        decomposition order, sliced from the memoized 32-byte digests.
        """
        canonical = canonicalize(url)
        decomps = tuple(decompositions(canonical, canonical=True))
        hash_cache = self._hash_cache
        nbytes = self.config.prefix_bits // 8
        missing = [expression for expression in decomps
                   if expression not in hash_cache]
        hash_cache.update(zip(missing, digests_of(missing)))
        prefixes = tuple(dict.fromkeys(
            [hash_cache[expression][:nbytes] for expression in decomps]
        ))
        plan = (canonical, decomps, prefixes)
        self._plan_cache[url] = plan
        return plan

    def _hit_hashes(self, expressions: Sequence[str],
                    local_hits: Sequence[Prefix]
                    ) -> list[tuple[str, FullHash, Prefix]]:
        """``(expression, digest, prefix)`` for each expression whose prefix
        is one of ``local_hits``, re-deriving evicted memos.

        The only place the lookup path builds a :class:`FullHash`: one per
        expression behind a local hit.
        """
        hash_cache = self._hash_cache
        nbytes = self.config.prefix_bits // 8
        hit_by_raw = {prefix.value: prefix for prefix in local_hits}
        hashes: list[tuple[str, FullHash, Prefix]] = []
        for expression in expressions:
            digest = hash_cache.get(expression)
            if digest is None:
                digest = hash_cache[expression] = digests_of((expression,))[0]
            prefix = hit_by_raw.get(digest[:nbytes])
            if prefix is not None:
                hashes.append((expression, _valid_full_hash(digest), prefix))
        return hashes

    def _trim_memos(self) -> None:
        """Keep the per-URL memos within :data:`PLAN_CACHE_SIZE` entries.

        Dict memos evict their oldest half (insertion order), so a hot
        working set re-memoizes quickly while a one-off crawl cannot grow
        the caches without bound.  The membership sets carry no useful
        ordering and are simply rebuilt from scratch once oversized (the
        next batch re-probes the stores).
        """
        limit = PLAN_CACHE_SIZE
        keep = max(1, limit // 2)
        for cache in (self._plan_cache, self._hash_cache, self._safe_result_cache):
            if len(cache) > limit:
                for key in list(cache)[: len(cache) - keep]:
                    del cache[key]
        for memo in (self._known_hits, self._known_misses):
            if len(memo) > limit:
                memo.clear()

    # -- full-hash plumbing ---------------------------------------------------

    def _run_policy_exchange(self, groups: Sequence[QueryGroup]) -> FullHashExchange:
        """Let the privacy policy resolve one full-hash exchange.

        Returns the finished exchange, whose :meth:`~FullHashExchange.credit`
        splits what crossed the wire among the groups.  Wire requests beyond
        the single coalesced request an undefended client would have made
        are accounted as extra round-trips.
        """
        exchange = FullHashExchange(self, groups)
        self.privacy_policy.execute(exchange)
        self.stats.extra_round_trips += max(0, exchange.requests_made - 1)
        return exchange

    def _store_full_hashes(self, prefix: Prefix,
                           entries: Iterable[tuple[str, FullHash]]) -> None:
        """Cache entries for one prefix on behalf of a privacy policy.

        The widening policy queries a shorter prefix on the wire and filters
        the superset response locally; what it stores here for the *real*
        prefix is exactly what an undefended request would have cached.
        """
        self._full_hash_cache[prefix] = _CachedFullHashes(
            entries=tuple(entries),
            expires_at=self.clock.now() + self.config.full_hash_cache_seconds,
        )

    def _cached_digest_match(self, prefix: Prefix, digest: FullHash) -> bool:
        """Whether the cache holds ``digest`` under ``prefix`` (confirmation)."""
        entry = self._full_hash_cache.get(prefix)
        return entry is not None and digest in entry.full_hashes

    def _split_cached(self, prefixes: Sequence[Prefix]) -> tuple[list[Prefix], list[Prefix]]:
        """Split prefixes into (still cached, must be requested)."""
        now = self.clock.now()
        cached: list[Prefix] = []
        missing: list[Prefix] = []
        for prefix in prefixes:
            entry = self._full_hash_cache.get(prefix)
            if entry is not None and entry.expires_at > now:
                cached.append(prefix)
            else:
                missing.append(prefix)
        return cached, missing

    def _request_full_hashes(self, prefixes: Sequence[Prefix]) -> FullHashResponse:
        """Send a full-hash request for ``prefixes`` (reveals them + cookie)."""
        request = FullHashRequest(
            cookie=self.cookie,
            prefixes=tuple(prefixes),
            timestamp=self.clock.now(),
        )
        self.stats.full_hash_requests += 1
        self.stats.prefixes_sent += len(prefixes)
        self._m_full_hash_batch_size.observe(len(prefixes))
        return self.transport.send_full_hash(request)

    def _cache_response(self, queried: Sequence[Prefix], response: FullHashResponse) -> None:
        expires_at = self.clock.now() + self.config.full_hash_cache_seconds
        for prefix in queried:
            matches = response.matches_for(prefix)
            self._full_hash_cache[prefix] = _CachedFullHashes(
                entries=tuple((match.list_name, match.full_hash) for match in matches),
                expires_at=expires_at,
            )

    def _match_digests(self, hashes: Sequence[tuple[str, FullHash, Prefix]]
                       ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Compare cached full digests with the URL's own digests.

        ``hashes`` are the URL's ``(expression, digest, prefix)`` triples
        for its local hits, as :meth:`_hit_hashes` returns them.
        """
        matched_lists: list[str] = []
        matched_expressions: list[str] = []
        for expression, digest, prefix in hashes:
            entry = self._full_hash_cache.get(prefix)
            if entry is not None and digest in entry.full_hashes:
                matched_expressions.append(expression)
                for list_name in entry.lists_for(digest):
                    if list_name not in matched_lists:
                        matched_lists.append(list_name)
        return tuple(matched_lists), tuple(matched_expressions)

