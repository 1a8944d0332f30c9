"""Client-side privacy defenses (paper Section 8), as a first-class layer.

The paper closes with two countermeasures a client can deploy against an
honest-but-curious provider — Firefox-style dummy queries and querying one
prefix at a time — and concludes that dummy queries protect a *single*
prefix but do not survive multi-prefix tracking.  Historically this
reproduction implemented them as offline wrapper classes around the scalar
lookup only, which the batched ``check_urls`` path silently bypassed.

This module makes defenses a pluggable subsystem instead.  A
:class:`PrivacyPolicy` intercepts the client at exactly one boundary: the
*full-hash exchange*, the moment a lookup (or a batched page load) must
resolve locally-hitting prefixes the full-hash cache cannot answer.  The
client hands the policy a :class:`FullHashExchange` describing what each URL
needs; the policy decides what actually crosses the wire — padded, split,
widened, delayed, or mixed — and the exchange routes every wire request
through the client's normal transport and response cache, so both lookup
paths (scalar *and* batched) are covered by construction.

The contract every policy must honour: **a policy may change what traffic
the server sees, never the client's verdicts.**  Concretely, after
:meth:`PrivacyPolicy.execute` returns, the client's full-hash cache must be
able to answer every needed prefix — either because the policy fetched it
(directly or through a widened query it filtered locally) or because an
already-fetched prefix confirmed the URL malicious, making the remaining
fetches unnecessary (the one-prefix-at-a-time early stop).  The property
suite pins verdict equivalence for every registered policy, on every store
backend, over both transports.

Registered policies (:data:`POLICY_FACTORIES`, mirroring the store
registry :data:`~repro.datastructures.memory.STORE_FACTORIES`):

``"none"``
    The undefended baseline: one coalesced request with exactly the needed
    prefixes — byte-for-byte the traffic of a client with no policy.
``"dummy"``
    :class:`DummyQueryPolicy` — every real prefix is padded with ``k``
    deterministic dummies (Firefox's design: deterministic, so repeated
    queries cannot be differenced).  Raises single-prefix k-anonymity by a
    factor of ``k + 1``; multi-prefix tracking still sees the real prefixes
    co-occur in one request.
``"one-prefix"``
    :class:`OnePrefixAtATimePolicy` — reveal the registered-domain root
    prefix first and deeper prefixes only while nothing is confirmed
    malicious.  The provider learns the domain, not the page, and a
    min-2-matches tracker never sees two prefixes co-occur.
``"widen"``
    :class:`PrefixWideningPolicy` — query a *shorter* (wider) prefix and
    filter the server's superset response locally.  The provider's
    anonymity set grows by ``2**(32 - widen_bits)``; needs the service
    layer's variable-width full-hash queries
    (:meth:`~repro.safebrowsing.database.ListDatabase.full_hashes_matching`).
``"mix"``
    :class:`QueryMixingPolicy` — delay each exchange on the shared
    :class:`~repro.clock.ManualClock`, batch the needed prefixes with a
    shuffled sample of the client's own earlier real prefixes, and send one
    mixed request.  Decorrelates request timing and contents from
    individual page loads; the needed prefixes still co-occur, so
    multi-prefix tracking survives (measured by the arms-race harness).

Policy instances are **stateful and per-client** (mixing pools, RNGs); build
one per client via :func:`build_policy`, never share an instance.
"""

from __future__ import annotations

import hashlib
import random
from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.clock import ManualClock
from repro.exceptions import PolicyError
from repro.hashing.digests import FullHash
from repro.hashing.prefix import Prefix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (client imports us)
    from repro.safebrowsing.client import SafeBrowsingClient
    from repro.safebrowsing.protocol import FullHashResponse

#: Upper bound on the mixing policy's replay pool, so a long-lived client
#: cannot grow it without bound (the pool only needs recent history).
MIX_POOL_RETENTION = 512


@dataclass(frozen=True, slots=True)
class QueryGroup:
    """The full-hash needs of one URL inside an exchange.

    Attributes
    ----------
    prefixes:
        Every locally-hitting prefix of the URL, deduplicated, in
        decomposition order — most specific first, registered-domain root
        last (the order the one-prefix policy reverses).
    missing:
        The subset of :attr:`prefixes` the full-hash cache cannot answer;
        the union of all groups' ``missing`` is what the exchange must
        resolve.
    digest_by_prefix:
        For each prefix, the full digest of the decomposition that produced
        it — what "the server confirmed this prefix" means for this URL.
    """

    prefixes: tuple[Prefix, ...]
    missing: tuple[Prefix, ...]
    digest_by_prefix: Mapping[Prefix, FullHash]


class FullHashExchange:
    """One policy-mediated full-hash fetch for a lookup or a batch.

    The exchange is the only surface a policy touches: it exposes what the
    lookup needs (:attr:`groups`, :attr:`needed`) and the levers a defense
    may pull — :meth:`send` wire requests, :meth:`store` locally-filtered
    cache entries, :meth:`delay` on the shared clock — while routing all of
    them through the owning client's transport, response cache and
    bandwidth accounting.
    """

    def __init__(self, client: "SafeBrowsingClient",
                 groups: Sequence[QueryGroup]) -> None:
        """Bind an exchange to its owning client.

        ``client`` supplies the transport, caches and stats the levers
        route through; ``groups`` carries one :class:`QueryGroup` per URL
        that needs resolving.
        """
        self._client = client
        self.groups = tuple(groups)
        #: Every prefix that crossed the wire, in send order (what the
        #: scalar lookup reports as ``sent_prefixes``).
        self.sent: list[Prefix] = []
        #: Wire requests made so far; anything beyond one is an extra
        #: round-trip the client's stats account for.
        self.requests_made = 0
        self._needed = tuple(dict.fromkeys(
            prefix for group in self.groups for prefix in group.missing
        ))
        self._needed_set = frozenset(self._needed)
        # Real prefix -> the wire prefixes sent on its behalf, so batched
        # results can attribute actual traffic per URL.  send() fills the
        # identity default; policies that reshape the wire form (widening,
        # dummy padding) record their own mapping.
        self._attribution: dict[Prefix, tuple[Prefix, ...]] = {}

    # -- what the lookup needs -------------------------------------------------

    @property
    def needed(self) -> tuple[Prefix, ...]:
        """Uncached prefixes across all groups, deduplicated in order."""
        return self._needed

    @property
    def client_name(self) -> str:
        """Name of the owning client (stable per-client RNG seeds)."""
        return self._client.name

    @property
    def prefix_bits(self) -> int:
        """Width of the client's local prefixes."""
        return self._client.config.prefix_bits

    @property
    def clock(self):
        """The client's clock (shared with the fleet in simulations)."""
        return self._client.clock

    # -- the levers ------------------------------------------------------------

    def send(self, prefixes: Sequence[Prefix], *, overhead: int = 0,
             overhead_label: str = "overhead-prefixes") -> "FullHashResponse":
        """Send one full-hash request; cache answers for the *needed* subset.

        Only prefixes the lookup actually needs are written to the client's
        full-hash cache: cover traffic must never displace a live cache
        entry (a replayed prefix re-fetched against a mutated database
        would otherwise flip a verdict an undefended client still serves
        from cache), and dead entries under dummy or widened keys would
        only accumulate.  A policy that queries a different wire form
        (widening) caches the real entries itself via :meth:`store`.

        ``overhead`` counts the prefixes in this request that are cover
        traffic rather than real needs (dummies, replayed mix prefixes);
        it lands in :attr:`ClientStats.dummy_prefixes_sent` and, labelled,
        in ``ClientStats.extra_requests``.
        """
        batch = tuple(prefixes)
        response = self._client._request_full_hashes(batch)
        cacheable = [prefix for prefix in batch if prefix in self._needed_set]
        if cacheable:
            self._client._cache_response(cacheable, response)
        self.sent.extend(batch)
        self.requests_made += 1
        for prefix in batch:
            # Default attribution: a needed prefix sent as itself.  Policies
            # that already recorded a mapping (dummy padding, widening) win.
            if prefix in self._needed_set and prefix not in self._attribution:
                self._attribution[prefix] = (prefix,)
        if overhead:
            stats = self._client.stats
            stats.dummy_prefixes_sent += overhead
            stats.record_extra(overhead_label, overhead)
        return response

    def attribute(self, prefix: Prefix,
                  wire_prefixes: Sequence[Prefix]) -> None:
        """Record which wire prefixes were sent on behalf of one real prefix.

        Only needed when the wire form differs from the prefix itself —
        :meth:`send` already records the identity mapping for every needed
        prefix it carries verbatim.
        """
        self._attribution[prefix] = tuple(wire_prefixes)

    def attributed_to(self, prefix: Prefix) -> tuple[Prefix, ...]:
        """The wire prefixes actually sent on behalf of one needed prefix.

        Empty for a prefix the policy never sent in any form (the
        one-prefix early stop) — which is exactly what a per-URL
        ``sent_prefixes`` should show for it.
        """
        return self._attribution.get(prefix, ())

    def store(self, prefix: Prefix,
              entries: Iterable[tuple[str, FullHash]]) -> None:
        """Cache ``(list name, full hash)`` entries for one *real* prefix.

        Used by policies that query something other than the real prefix
        (widening) and must populate the cache from a locally-filtered
        response themselves.
        """
        self._client._store_full_hashes(prefix, entries)

    def is_confirmed(self, prefix: Prefix, digest: FullHash) -> bool:
        """Whether the cache already proves ``digest`` malicious for ``prefix``."""
        return self._client._cached_digest_match(prefix, digest)

    def delay(self, seconds: float) -> None:
        """Elapse ``seconds`` before the next send (timing decorrelation).

        Advances the clock only when it is a :class:`ManualClock` (the
        simulations' shared logical clock); either way the delay is
        accounted in :attr:`ClientStats.policy_delay_seconds`.
        """
        if seconds <= 0:
            return
        clock = self._client.clock
        if isinstance(clock, ManualClock):
            clock.advance(seconds)
        self._client.stats.policy_delay_seconds += seconds


class PrivacyPolicy(ABC):
    """A client-side countermeasure over the full-hash exchange.

    Subclasses implement :meth:`execute`; see the module docstring for the
    verdict-preservation contract.  Instances are stateful and must not be
    shared between clients.
    """

    #: Registry name, mirrored in :data:`POLICY_FACTORIES`.
    name: str = "abstract"

    @abstractmethod
    def execute(self, exchange: FullHashExchange) -> None:
        """Resolve the exchange's needed prefixes, however this policy does."""

    def validate_for(self, prefix_bits: int) -> None:
        """Reject configurations meaningless for a ``prefix_bits`` client.

        Called once when the policy is installed on a client, so a defense
        that would silently degrade to a no-op (e.g. widening to the full
        prefix width) fails loudly instead of reporting itself deployed.
        """


class NoPolicy(PrivacyPolicy):
    """The undefended baseline: one coalesced request, nothing extra.

    Registered so harnesses can sweep "every policy" with the baseline
    included; a client constructed without any policy takes the same path
    without the exchange indirection.
    """

    name = "none"

    def execute(self, exchange: FullHashExchange) -> None:
        """Send the needed prefixes verbatim in one coalesced request."""
        needed = exchange.needed
        if needed:
            exchange.send(needed)


class DummyQueryPolicy(PrivacyPolicy):
    """Pad every real prefix with deterministic dummy prefixes.

    The dummies are deterministic functions of the real prefix (as in
    Firefox, to resist differential analysis across repeated queries): the
    i-th dummy of prefix ``p`` is the prefix of ``SHA-256(p || i)``.
    """

    name = "dummy"

    def __init__(self, *, dummies_per_query: int = 4) -> None:
        """``dummies_per_query``: cover prefixes added per real prefix."""
        if dummies_per_query < 0:
            raise PolicyError("dummies_per_query must be non-negative")
        self.dummies_per_query = dummies_per_query

    def dummy_prefixes(self, prefix: Prefix) -> list[Prefix]:
        """The deterministic dummies attached to one real prefix."""
        dummies: list[Prefix] = []
        for index in range(self.dummies_per_query):
            digest = hashlib.sha256(prefix.value + bytes([index])).digest()
            dummies.append(Prefix.from_digest(digest, prefix.bits))
        return dummies

    def execute(self, exchange: FullHashExchange) -> None:
        """Send one request with every needed prefix and its dummies."""
        needed = exchange.needed
        if not needed:
            return
        padded: list[Prefix] = []
        for prefix in needed:
            block = (prefix, *self.dummy_prefixes(prefix))
            padded.extend(block)
            exchange.attribute(prefix, block)
        exchange.send(padded, overhead=len(padded) - len(needed),
                      overhead_label="dummy-prefixes")


class OnePrefixAtATimePolicy(PrivacyPolicy):
    """Reveal the least specific prefix first, deeper ones only if needed.

    For each URL, the registered-domain root's prefix is queried first; a
    deeper prefix is revealed only while no queried decomposition has been
    confirmed malicious (once one is, the user can already be warned, so
    the remaining — more identifying — prefixes are never sent).  A prefix
    already confirmed in the cache from an earlier visit stops the walk
    without any wire traffic at all, so revisits never leak what the first
    visit withheld.
    """

    name = "one-prefix"

    def execute(self, exchange: FullHashExchange) -> None:
        """Walk each URL root-first, one wire request per revealed prefix,
        stopping as soon as a queried decomposition is confirmed."""
        fetched: set[Prefix] = set()
        for group in exchange.groups:
            missing = set(group.missing)
            for prefix in reversed(group.prefixes):
                if prefix in missing and prefix not in fetched:
                    exchange.send((prefix,))
                    fetched.add(prefix)
                digest = group.digest_by_prefix.get(prefix)
                if digest is not None and exchange.is_confirmed(prefix, digest):
                    break


class PrefixWideningPolicy(PrivacyPolicy):
    """Query a shorter (wider) prefix; filter the superset response locally.

    The provider answers variable-width full-hash queries (the v4-style
    lookup implemented by
    :meth:`~repro.safebrowsing.database.ListDatabase.full_hashes_matching`),
    so the client can reveal only ``widen_bits`` of each 32-bit prefix and
    keep the disambiguation to itself: every returned full digest is checked
    against the *real* prefix before it enters the cache.  The provider's
    anonymity set per query grows by ``2**(32 - widen_bits)``, and a
    32-bit-keyed tracking index never matches the widened prefixes at all.
    """

    name = "widen"

    def __init__(self, *, widen_bits: int = 16) -> None:
        """``widen_bits``: width (multiple of 8) actually revealed on the wire."""
        if widen_bits % 8 != 0 or widen_bits < 8:
            raise PolicyError(
                f"widen_bits must be a positive multiple of 8, got {widen_bits}"
            )
        self.widen_bits = widen_bits

    def validate_for(self, prefix_bits: int) -> None:
        """Reject widths that cannot widen a ``prefix_bits`` client's queries."""
        if self.widen_bits >= prefix_bits:
            raise PolicyError(
                f"widen_bits={self.widen_bits} does not widen anything for a "
                f"client with {prefix_bits}-bit prefixes; choose a width "
                f"below {prefix_bits}"
            )

    def widened(self, prefix: Prefix) -> Prefix:
        """The wide (shorter) prefix actually revealed for a real prefix."""
        bits = min(self.widen_bits, prefix.bits)
        return Prefix(prefix.value[: bits // 8], bits)

    def execute(self, exchange: FullHashExchange) -> None:
        """Send the widened forms, then cache only locally-matching digests."""
        needed = exchange.needed
        if not needed:
            return
        for prefix in needed:
            exchange.attribute(prefix, (self.widened(prefix),))
        wide = tuple(dict.fromkeys(self.widened(prefix) for prefix in needed))
        response = exchange.send(wide)
        # Local filtering: only digests that extend the *real* prefix enter
        # its cache entry, so verdicts are exactly the unwidened ones.
        for prefix in needed:
            exchange.store(prefix, (
                (match.list_name, match.full_hash)
                for match in response.matches
                if match.full_hash.prefix(prefix.bits) == prefix
            ))


class QueryMixingPolicy(PrivacyPolicy):
    """Delay, batch and shuffle full-hash traffic across lookups.

    Each exchange is delayed by ``delay_seconds`` on the shared clock, then
    sent as one request mixing the needed prefixes with up to ``pool_size``
    replayed prefixes sampled from the client's own earlier real queries,
    in shuffled order.  The provider can no longer align a request with a
    single page load or tell which of its prefixes the current visit
    produced.  A verdict is due synchronously, so deferral cannot cross an
    exchange; the replayed history is what "mixing across lookups" means
    here.  The needed prefixes still co-occur in one request — the
    arms-race harness shows multi-prefix tracking survives this policy too.
    """

    name = "mix"

    def __init__(self, *, pool_size: int = 8, delay_seconds: float = 0.25,
                 seed: int | str = 0) -> None:
        """``pool_size`` replayed prefixes and ``delay_seconds`` of clock
        delay per exchange; ``seed`` fixes the per-client shuffle."""
        if pool_size < 0:
            raise PolicyError("pool_size must be non-negative")
        if delay_seconds < 0:
            raise PolicyError("delay_seconds must be non-negative")
        self.pool_size = pool_size
        self.delay_seconds = delay_seconds
        self.seed = seed
        self._pool: deque[Prefix] = deque(maxlen=MIX_POOL_RETENTION)
        self._pool_set: set[Prefix] = set()
        self._rng: random.Random | None = None

    def execute(self, exchange: FullHashExchange) -> None:
        """Delay, then send needed + replayed prefixes in shuffled order."""
        needed = exchange.needed
        if not needed:
            return
        if self._rng is None:
            # Seeded per client at first use, so fleets stay deterministic
            # while clients shuffle independently.
            self._rng = random.Random(f"mix:{exchange.client_name}:{self.seed}")
        needed_set = set(needed)
        candidates = [prefix for prefix in self._pool
                      if prefix not in needed_set]
        take = min(self.pool_size, len(candidates))
        replayed = self._rng.sample(candidates, take) if take else []
        combined = list(needed) + replayed
        self._rng.shuffle(combined)
        exchange.delay(self.delay_seconds)
        exchange.send(combined, overhead=len(replayed),
                      overhead_label="mixed-prefixes")
        for prefix in needed:
            if prefix not in self._pool_set:
                if len(self._pool) == self._pool.maxlen:
                    self._pool_set.discard(self._pool[0])
                self._pool.append(prefix)
                self._pool_set.add(prefix)


#: Privacy policies selectable by name, mirroring the store registry
#: ``STORE_FACTORIES``; :func:`build_policy` rejects unknown names with the
#: registered list, which the CLI reports as its error.
POLICY_FACTORIES: dict[str, type[PrivacyPolicy]] = {
    "none": NoPolicy,
    "dummy": DummyQueryPolicy,
    "one-prefix": OnePrefixAtATimePolicy,
    "widen": PrefixWideningPolicy,
    "mix": QueryMixingPolicy,
}

#: The registered policy names, for choice lists.
POLICY_KINDS = tuple(sorted(POLICY_FACTORIES))


def build_policy(name: str, *, dummies_per_query: int = 4,
                 widen_bits: int = 16, mix_pool_size: int = 8,
                 mix_delay_seconds: float = 0.25,
                 seed: int | str = 0) -> PrivacyPolicy:
    """Construct a fresh policy instance by registry name.

    Every caller threads one option set through; each policy picks the
    options it understands.  Unknown names raise :class:`PolicyError`
    listing the registered policies.
    """
    if name not in POLICY_FACTORIES:
        raise PolicyError(
            f"unknown privacy policy {name!r}; "
            f"expected one of {sorted(POLICY_FACTORIES)}"
        )
    if name == "dummy":
        return DummyQueryPolicy(dummies_per_query=dummies_per_query)
    if name == "widen":
        return PrefixWideningPolicy(widen_bits=widen_bits)
    if name == "mix":
        return QueryMixingPolicy(pool_size=mix_pool_size,
                                 delay_seconds=mix_delay_seconds, seed=seed)
    return POLICY_FACTORIES[name]()
