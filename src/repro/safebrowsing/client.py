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

Two lookup paths share these semantics: :meth:`SafeBrowsingClient.check_url`
runs the flow above for one URL (the scalar reference), while
:meth:`SafeBrowsingClient.check_urls` checks a whole page-load batch —
deduplicating and memoizing the pure derivations, probing the stores with
one bitmask query per list, and coalescing every uncached full-hash lookup
into a single request — with verdicts identical to the scalar path.

Everything the client sends crosses a
:class:`~repro.safebrowsing.transport.Transport`.  Constructing a client
with a bare server wraps it in the in-process transport (direct dispatch,
the historical behaviour); passing ``transport=`` swaps in e.g. the
simulated network, with no other change to the lookup flow.

A client may also carry a **privacy policy**
(:mod:`repro.safebrowsing.privacy`): every full-hash exchange — the moment
either lookup path must resolve uncached locally-hitting prefixes — is then
mediated by the policy, which decides what actually crosses the wire
(padded with dummies, one prefix at a time, widened, mixed).  Policies may
reshape traffic but never verdicts; with no policy set both paths keep
their exact historical behaviour.
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
from repro.hashing.digests import FullHash, digests_of
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
from repro.urls.decompose import API_POLICY, DecompositionPolicy, decompositions

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
    decomposition_policy:
        Limits on host/path decompositions (the API defaults).
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
    plan_cache_size:
        Upper bound on the batched path's per-URL memos (derivations and
        store-membership answers).  Memoizing them cannot change a verdict
        — derivations are pure, and membership memos are invalidated on
        every applied update — so the bound only caps memory.  ``0``
        disables cross-batch memoization entirely (within one batch, work
        is still shared: that is the point of the batched path).
    """

    store_backend: str = DEFAULT_STORE_BACKEND
    prefix_bits: int = 32
    decomposition_policy: DecompositionPolicy = API_POLICY
    full_hash_cache_seconds: float = 2700.0
    auto_update: bool = True
    update_jitter_fraction: float = 0.0
    plan_cache_size: int = 4096

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
            or registry name; ``None`` keeps the exact undefended path.
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
        # The privacy-defense hook: every full-hash exchange (scalar and
        # batched) is mediated by the policy when one is set.  A name is
        # resolved through the policy registry; ``None`` keeps the exact
        # undefended fast path.  Policy instances are stateful — one per
        # client, never shared.
        if isinstance(privacy_policy, str):
            privacy_policy = build_policy(privacy_policy, seed=f"client:{name}")
        if privacy_policy is not None:
            # Fail loudly now rather than run a defense that silently
            # degrades to a no-op at this client's prefix width.
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
        # Memos of pure URL/expression derivations used by check_urls();
        # bounded by config.plan_cache_size, never consulted by lookup().
        # They hold prefixes as raw bytes: Prefix objects are built only for
        # prefixes the local stores hold.
        self._plan_cache: dict[str, tuple[str, tuple[str, ...], tuple[bytes, ...]]] = {}
        self._hash_cache: dict[str, tuple[FullHash, bytes]] = {}
        # Local-store membership memos for the batched path.  A hit keeps its
        # Prefix, so revisits reuse it.  Membership only changes when an
        # update applies chunks, so both are dropped whenever update()
        # applies anything (alongside the full-hash cache).
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
        # Observability: children are bound once here so the hot paths make
        # bound-method calls only.  With no registry the shared no-op child
        # is bound and the wall-clock measurement blocks are skipped
        # entirely (guarded by _metrics_enabled).
        metrics = registry_or_null(metrics)
        self._metrics_enabled = metrics.enabled
        self._m_urls_checked = metrics.counter(
            "client_urls_checked_total", "URLs checked by clients")
        self._m_check_batches = metrics.counter(
            "client_check_batches_total", "Batched check_urls calls")
        self._m_full_hash_requests = metrics.counter(
            "client_full_hash_requests_total",
            "Full-hash requests clients sent")
        self._m_full_hash_batch_size = metrics.histogram(
            "client_full_hash_batch_size",
            "Prefixes per client full-hash request", bounds=SIZE_BOUNDS)
        self._m_update_requests = metrics.counter(
            "client_update_requests_total", "Update polls clients sent")
        self._m_update_chunks = metrics.counter(
            "client_update_chunks_total", "Chunks received by update polls")
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
        self._m_update_requests.inc()
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
                self._m_update_chunks.inc()
        try:
            applied = self._apply_update(response)
        except Exception:
            # The response may have been partially applied before failing, so
            # the stores are in an unknown state: every store-derived memo
            # must go or the batched path would serve pre-failure answers.
            self._invalidate_store_memos()
            self.scheduler.record_error(self.clock.now())
            raise
        if applied:
            # Updates invalidate cached full hashes (paper Section 2.2.1:
            # "they are locally stored until an update discards them") and
            # the batched path's membership memos (the stores just changed).
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

    def _local_hit(self, prefix: Prefix) -> bool:
        return any(prefix in state.store for state in self._lists.values())

    # -- persistence (snapshot + warm start) -----------------------------------

    def save_snapshot(self, path: str | Path) -> Path:
        """Persist the local database (stores + chunk ranges) to ``path``.

        Writes the versioned, checksummed snapshot format of
        :mod:`repro.safebrowsing.snapshot`; volatile state (full-hash cache,
        memos, scheduler backoff) is not persisted.  Returns the path
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
        """Check one URL, contacting the server only on a local hit."""
        if not self._metrics_enabled:
            return self._lookup_impl(url)
        start = perf_counter()
        try:
            return self._lookup_impl(url)
        finally:
            self._m_lookup_wall.observe(perf_counter() - start)

    def _lookup_impl(self, url: str) -> LookupResult:
        if self.config.auto_update and self.needs_update():
            self.update()

        canonical = canonicalize(url)
        decomps = tuple(
            decompositions(canonical, policy=self.config.decomposition_policy,
                           canonical=True)
        )
        self.stats.urls_checked += 1
        self._m_urls_checked.inc()

        digest_by_expression = {expression: FullHash.of(expression) for expression in decomps}
        prefix_by_expression = {
            expression: digest.prefix(self.config.prefix_bits)
            for expression, digest in digest_by_expression.items()
        }

        local_hits = tuple(
            dict.fromkeys(
                prefix
                for prefix in prefix_by_expression.values()
                if self._local_hit(prefix)
            )
        )
        if not local_hits:
            return LookupResult(
                url=url, canonical_url=canonical, verdict=Verdict.SAFE,
                decompositions=decomps,
            )
        self.stats.local_hits += 1

        cached, missing = self._split_cached(local_hits)
        sent_prefixes: tuple[Prefix, ...] = ()
        if missing:
            if self.privacy_policy is None:
                response = self._request_full_hashes(missing)
                self._cache_response(missing, response)
                sent_prefixes = tuple(missing)
            else:
                digest_by_prefix: dict[Prefix, FullHash] = {}
                for expression, digest in digest_by_expression.items():
                    digest_by_prefix.setdefault(
                        prefix_by_expression[expression], digest)
                sent_prefixes = tuple(self._run_policy_exchange([
                    QueryGroup(prefixes=local_hits, missing=tuple(missing),
                               digest_by_prefix=digest_by_prefix)
                ]).sent)
        else:
            self.stats.cache_hits += 1

        matched_lists, matched_expressions = self._match_digests(
            digest_by_expression, prefix_by_expression, local_hits
        )
        verdict = Verdict.MALICIOUS if matched_expressions else Verdict.SAFE
        if verdict is Verdict.MALICIOUS:
            self.stats.malicious_verdicts += 1

        return LookupResult(
            url=url,
            canonical_url=canonical,
            verdict=verdict,
            decompositions=decomps,
            local_hits=local_hits,
            sent_prefixes=sent_prefixes,
            matched_lists=matched_lists,
            matched_expressions=matched_expressions,
            served_from_cache=not missing,
        )

    def check_url(self, url: str) -> LookupResult:
        """Check one URL — the scalar reference path.

        Alias of :meth:`lookup`, named for symmetry with the batched
        :meth:`check_urls`; the property tests hold the two paths to
        identical verdicts.
        """
        return self.lookup(url)

    # -- batched lookup flow ---------------------------------------------------

    def check_urls(self, urls: Sequence[str]) -> list[LookupResult]:
        """Check a batch of URLs, amortizing every stage of the pipeline.

        Produces exactly the verdicts of ``[self.check_url(u) for u in urls]``
        (at a fixed clock), but does the work batch-wide instead of per URL:

        * repeated URLs are canonicalized and decomposed once;
        * every *unique* decomposition across the batch is hashed once
          (URLs sharing a host share their domain-root decompositions);
        * local stores are probed with one :meth:`PrefixStore.contains_many`
          bitmask query per list over one packed :class:`PrefixRun` of the
          unique prefixes, and :class:`Prefix` objects are built only for
          the prefixes the stores hold;
        * all uncached full-hash lookups are coalesced into a single server
          request instead of one request per hitting URL.

        Attribution mirrors the scalar path: a prefix appears in
        ``sent_prefixes`` of the first URL (in batch order) that needed it,
        and later URLs reusing it are ``served_from_cache``.
        """
        if not urls:
            # An empty scalar loop has no side effects; neither may we.
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
        self._m_urls_checked.inc(len(urls))
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
        # to-request exactly as the scalar path would have seen them.
        requested: dict[Prefix, None] = {}
        hitting: list[tuple[int, str, tuple, tuple[Prefix, ...], tuple[Prefix, ...]]] = []
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
            if self.privacy_policy is None:
                # Cross-URL dedup: a prefix an earlier URL already put in
                # the coalesced request is guaranteed to be fetched, so
                # later URLs need not list it again.
                candidates = [prefix for prefix in local_hits
                              if prefix not in requested]
            else:
                # A policy may legitimately *withhold* a prefix another URL
                # listed (the one-prefix early stop), so every URL's group
                # must carry its own uncached hits; the exchange dedups the
                # wire traffic instead.  Dropping a shared prefix here once
                # returned SAFE for a blacklisted URL whose only evidence an
                # earlier URL's early stop had withheld.
                candidates = list(local_hits)
            _, missing = self._split_cached(candidates)
            for prefix in missing:
                requested[prefix] = None
            hitting.append((position, url, plan, local_hits, tuple(missing)))

        # Stage 4: one coalesced full-hash request for the whole batch — or,
        # with a privacy policy set, one policy-mediated exchange carrying
        # the per-URL needs (so batched lookups are defended exactly like
        # scalar ones; the wrappers this layer replaced used to let
        # check_urls bypass the mitigation entirely).
        exchange: FullHashExchange | None = None
        if requested:
            if self.privacy_policy is None:
                response = self._request_full_hashes(list(requested))
                self._cache_response(list(requested), response)
            else:
                groups = []
                for _, _, (_, decomps, _), local_hits, missing in hitting:
                    if not missing:
                        continue
                    digest_by_prefix: dict[Prefix, FullHash] = {}
                    for _, digest, prefix in self._hit_hashes(decomps,
                                                              local_hits):
                        digest_by_prefix.setdefault(prefix, digest)
                    groups.append(QueryGroup(prefixes=local_hits,
                                             missing=missing,
                                             digest_by_prefix=digest_by_prefix))
                exchange = self._run_policy_exchange(groups)

        # Stage 5: verdicts for the hitting URLs from the (now warm) cache.
        for position, url, (canonical, decomps, _), local_hits, missing in hitting:
            self.stats.local_hits += 1
            if not missing:
                self.stats.cache_hits += 1
            if exchange is None:
                sent = missing
            else:
                # Attribute the traffic the policy *actually* sent for this
                # URL's prefixes (wire form: padded, widened, or withheld
                # by an early stop) — never the plan.
                sent = tuple(dict.fromkeys(
                    wire for prefix in missing
                    for wire in exchange.attributed_to(prefix)
                ))
            hashes = self._hit_hashes(decomps, local_hits)
            matched_lists, matched_expressions = self._match_digests(
                {expression: digest for expression, digest, _ in hashes},
                {expression: prefix for expression, _, prefix in hashes},
                local_hits,
            )
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
                served_from_cache=not missing,
            )
        # Trim at batch end so a limit of 0 means "nothing carries over":
        # within a batch the sharing is the whole point of the batched path.
        self._trim_memos()
        return results

    def _build_plan(self, url: str) -> tuple[str, tuple[str, ...], tuple[bytes, ...]]:
        """Memoize the pure derivations of one URL for the batched path.

        The plan holds the URL's deduplicated prefixes as raw bytes, in
        decomposition order.
        """
        canonical = canonicalize(url)
        decomps = tuple(
            decompositions(canonical, policy=self.config.decomposition_policy,
                           canonical=True)
        )
        hash_cache = self._hash_cache
        nbytes = self.config.prefix_bits // 8
        missing = [expression for expression in decomps
                   if expression not in hash_cache]
        for expression, digest in zip(missing, digests_of(missing)):
            hash_cache[expression] = (digest, digest.digest[:nbytes])
        prefixes = tuple(dict.fromkeys(
            hash_cache[expression][1] for expression in decomps
        ))
        plan = (canonical, decomps, prefixes)
        self._plan_cache[url] = plan
        return plan

    def _hit_hashes(self, expressions: Sequence[str],
                    local_hits: Sequence[Prefix]
                    ) -> list[tuple[str, FullHash, Prefix]]:
        """``(expression, digest, prefix)`` for each expression whose prefix
        is one of ``local_hits``, re-deriving evicted memos."""
        hash_cache = self._hash_cache
        nbytes = self.config.prefix_bits // 8
        hit_by_raw = {prefix.value: prefix for prefix in local_hits}
        hashes: list[tuple[str, FullHash, Prefix]] = []
        for expression in expressions:
            entry = hash_cache.get(expression)
            if entry is None:
                digest = FullHash.of(expression)
                entry = (digest, digest.digest[:nbytes])
                hash_cache[expression] = entry
            prefix = hit_by_raw.get(entry[1])
            if prefix is not None:
                hashes.append((expression, entry[0], prefix))
        return hashes

    def _trim_memos(self) -> None:
        """Keep the batched-path memos within ``plan_cache_size`` entries.

        Dict memos evict their oldest half (insertion order), so a hot
        working set re-memoizes quickly while a one-off crawl cannot grow
        the caches without bound.  The membership sets carry no useful
        ordering and are simply rebuilt from scratch once oversized (the
        next batch re-probes the stores).  With a limit of 0 everything is
        emptied, so nothing survives from one batch to the next.
        """
        limit = self.config.plan_cache_size
        keep = limit // 2 or limit  # half the bound, but never zero for limit >= 1
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

        Returns the finished exchange: ``exchange.sent`` is everything that
        actually crossed the wire in send order (cover traffic included, the
        scalar ``sent_prefixes``), and ``exchange.attributed_to`` maps each
        needed prefix to its wire form for per-URL attribution on the
        batched path.  Wire requests beyond the single coalesced request an
        undefended client would have made are accounted as extra
        round-trips.
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
        self._m_full_hash_requests.inc()
        self._m_full_hash_batch_size.observe(len(prefixes))
        return self.transport.send_full_hash(request)

    def send_raw_prefixes(self, prefixes: Sequence[Prefix]) -> FullHashResponse:
        """Send an explicit full-hash request outside a URL lookup.

        Historically the hook the offline mitigation wrappers used; the
        integrated policy layer goes through
        :class:`~repro.safebrowsing.privacy.FullHashExchange` instead.  Kept
        for experiments that probe the provider directly.
        """
        response = self._request_full_hashes(prefixes)
        self._cache_response(prefixes, response)
        return response

    def _cache_response(self, queried: Sequence[Prefix], response: FullHashResponse) -> None:
        expires_at = self.clock.now() + self.config.full_hash_cache_seconds
        for prefix in queried:
            matches = response.matches_for(prefix)
            self._full_hash_cache[prefix] = _CachedFullHashes(
                entries=tuple((match.list_name, match.full_hash) for match in matches),
                expires_at=expires_at,
            )

    def _match_digests(self, digest_by_expression: dict[str, FullHash],
                       prefix_by_expression: dict[str, Prefix],
                       local_hits: tuple[Prefix, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Compare cached full digests with the URL's own digests."""
        matched_lists: list[str] = []
        matched_expressions: list[str] = []
        hit_set = set(local_hits)
        for expression, digest in digest_by_expression.items():
            prefix = prefix_by_expression[expression]
            if prefix not in hit_set:
                continue
            entry = self._full_hash_cache.get(prefix)
            if entry is None:
                continue
            if digest in entry.full_hashes:
                matched_expressions.append(expression)
                for list_name in entry.lists_for(digest):
                    if list_name not in matched_lists:
                        matched_lists.append(list_name)
        return tuple(matched_lists), tuple(matched_expressions)
