"""Property tests: the batched lookup path equals the scalar reference.

``SafeBrowsingClient.lookup`` is the one-URL case of ``check_urls``; the
scalar Figure-3 flow it replaced survives only here, as
:func:`reference_lookup`, the independent oracle the batched path is held
to.  The invariants:

* for any URL batch and any store backend, ``check_urls`` returns exactly
  the results of the reference run URL by URL (verdicts *and* the revealed
  prefixes, cache attribution, matched lists/expressions);
* under every privacy policy, a one-URL ``check_urls`` equals the
  reference field for field, ``sent_prefixes`` in send order included;
* for any batch and every policy, the ``sent_prefixes`` of the results
  account for every prefix the provider logged, each exactly once;
* a client built with no policy and one built with ``"none"`` are the
  same client: same results, same stats, same server log;
* for any store content and probe list, ``contains_many`` equals the
  bitmask of per-prefix ``in`` checks.

The URL universe is deliberately tiny so batches collide heavily with the
blacklist, with each other, and with their own earlier entries — the regime
where the batched path's memoization and coalescing could plausibly diverge.
It spells some hosts and paths with percent escapes and numeric IP forms, so
the canonicalizer's slow branches feed the batched plans too.  The
equivalence is also pinned at 64-bit prefixes.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import example, given, settings, strategies as st

from repro.clock import ManualClock
from repro.datastructures import STORE_FACTORIES
from repro.hashing.digests import FullHash
from repro.hashing.prefix import Prefix
from repro.safebrowsing.client import ClientConfig, SafeBrowsingClient
from repro.safebrowsing.lists import GOOGLE_LISTS
from repro.safebrowsing.privacy import (
    POLICY_FACTORIES,
    FullHashExchange,
    QueryGroup,
    build_policy,
)
from repro.safebrowsing.protocol import LookupResult, Verdict
from repro.safebrowsing.server import SafeBrowsingServer
from repro.urls.canonicalize import canonicalize
from repro.urls.decompose import decompositions

BACKENDS = sorted(STORE_FACTORIES)
POLICIES = sorted(POLICY_FACTORIES)

BLACKLISTED = (
    "evil.example.com/malware/dropper.exe",
    "evil.example.com/",
    "phishy.example.net/login.html",
    "deep.phishy.example.net/a/b/c.html",
    "192.168.0.1/admin/",
)

#: A prefix the phishing list holds with no full digest behind it (paper
#: Section 7.2).  ``phishy.example.net/login.html`` then hits twice with an
#: unconfirmable root, so ``one-prefix`` sends two prefixes, root first.
ORPHAN_EXPRESSION = "phishy.example.net/"

_hosts = st.sampled_from([
    "evil.example.com",
    "phishy.example.net",
    "deep.phishy.example.net",
    "good.example.org",
    "sub.good.example.org",
    # Percent-escaped spellings of the hosts above.
    "evil%2Eexample.com",
    "%65vil.example.com",
    "phishy.example.net%2e",
    "deep.phishy%252Eexample.net",
    # Numeric forms of 192.168.0.1, a near miss, and a bogus form.
    "192.168.0.1",
    "3232235521",
    "0xc0.0xa8.0.1",
    "0300.0250.0.01",
    "192.168.1",
    "192.168.0.2",
    "0x7f_00_00_01",
])
_paths = st.sampled_from([
    "/",
    "/login.html",
    "/malware/dropper.exe",
    "/malware/",
    "/a/b/c.html",
    "/a/",
    "/index.html?q=1",
    "/admin/",
    # Percent-escaped spellings (single, double, escaped dot segments).
    "/%6dalware/dropper.exe",
    "/malware%2Fdropper.exe",
    "/a/%2e%2e/a/b/c.html",
    "/%2561dmin/",
    "/login%2Ehtml#frag",
    "/x%20y?q=%25",
])
_urls = st.builds(lambda host, path: f"http://{host}{path}", _hosts, _paths)

_values32 = st.integers(min_value=0, max_value=2**32 - 1)


def _build_server(prefix_bits: int = 32) -> SafeBrowsingServer:
    server = SafeBrowsingServer(GOOGLE_LISTS, clock=ManualClock(),
                                prefix_bits=prefix_bits)
    server.blacklist("goog-malware-shavar", BLACKLISTED[:2])
    server.blacklist("googpub-phish-shavar", BLACKLISTED[2:])
    server.insert_orphan_prefixes("googpub-phish-shavar", [
        FullHash.of(ORPHAN_EXPRESSION).prefix(prefix_bits)])
    return server


def _result_fields(result):
    return (
        result.url,
        result.canonical_url,
        result.verdict,
        result.decompositions,
        result.local_hits,
        result.sent_prefixes,
        result.matched_lists,
        result.matched_expressions,
        result.served_from_cache,
    )


def reference_lookup(client: SafeBrowsingClient, url: str) -> LookupResult:
    """The scalar Figure-3 flow, one URL at a time, with no memos.

    A transcription of the client's former per-URL path: canonicalize,
    decompose, hash every expression, probe each list store prefix by
    prefix, and hand the uncached hits to the client's privacy policy in
    one exchange.  ``sent_prefixes`` is everything that exchange put on
    the wire, in send order.  It shares only the client's state (stores,
    full-hash cache, policy, stats) and wire plumbing.
    """
    if client.config.auto_update and client.needs_update():
        client.update()
    canonical = canonicalize(url)
    decomps = tuple(decompositions(canonical, canonical=True))
    client.stats.urls_checked += 1

    digest_by_expression = {expression: FullHash.of(expression)
                            for expression in decomps}
    prefix_by_expression = {
        expression: digest.prefix(client.config.prefix_bits)
        for expression, digest in digest_by_expression.items()
    }
    local_hits = tuple(dict.fromkeys(
        prefix for prefix in prefix_by_expression.values()
        if any(prefix in state.store for state in client._lists.values())
    ))
    if not local_hits:
        return LookupResult(url=url, canonical_url=canonical,
                            verdict=Verdict.SAFE, decompositions=decomps)
    client.stats.local_hits += 1

    _, missing = client._split_cached(local_hits)
    sent_prefixes: tuple[Prefix, ...] = ()
    if missing:
        digest_by_prefix: dict[Prefix, FullHash] = {}
        for expression, digest in digest_by_expression.items():
            digest_by_prefix.setdefault(prefix_by_expression[expression], digest)
        exchange = FullHashExchange(client, [QueryGroup(
            prefixes=local_hits, missing=tuple(missing),
            digest_by_prefix=digest_by_prefix)])
        client.privacy_policy.execute(exchange)
        client.stats.extra_round_trips += max(0, exchange.requests_made - 1)
        sent_prefixes = tuple(exchange.sent)
    else:
        client.stats.cache_hits += 1

    matched_lists: list[str] = []
    matched_expressions: list[str] = []
    for expression, digest in digest_by_expression.items():
        prefix = prefix_by_expression[expression]
        entry = client._full_hash_cache.get(prefix)
        if prefix not in local_hits or entry is None:
            continue
        if digest in entry.full_hashes:
            matched_expressions.append(expression)
            for list_name in entry.lists_for(digest):
                if list_name not in matched_lists:
                    matched_lists.append(list_name)
    verdict = Verdict.MALICIOUS if matched_expressions else Verdict.SAFE
    if verdict is Verdict.MALICIOUS:
        client.stats.malicious_verdicts += 1
    return LookupResult(
        url=url, canonical_url=canonical, verdict=verdict,
        decompositions=decomps, local_hits=local_hits,
        sent_prefixes=sent_prefixes, matched_lists=tuple(matched_lists),
        matched_expressions=tuple(matched_expressions),
        served_from_cache=not missing,
    )


class TestCheckUrlsEqualsScalarReference:
    @given(urls=st.lists(_urls, max_size=30), backend=st.sampled_from(BACKENDS))
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_scalar(self, urls: list[str], backend: str):
        server = _build_server()
        config = ClientConfig(store_backend=backend)
        scalar = SafeBrowsingClient(server, name="scalar", config=config)
        batched = SafeBrowsingClient(server, name="batched", config=config)
        scalar_results = [reference_lookup(scalar, url) for url in urls]
        batched_results = batched.check_urls(urls)
        assert len(batched_results) == len(scalar_results)
        for expected, actual in zip(scalar_results, batched_results):
            assert _result_fields(actual) == _result_fields(expected)

    @given(first=st.lists(_urls, max_size=15), second=st.lists(_urls, max_size=15),
           backend=st.sampled_from(BACKENDS))
    @settings(max_examples=40, deadline=None)
    def test_consecutive_batches_equal_scalar_sequence(self, first: list[str],
                                                       second: list[str],
                                                       backend: str):
        # Memoized state carried between batches must not change verdicts.
        server = _build_server()
        config = ClientConfig(store_backend=backend)
        scalar = SafeBrowsingClient(server, name="scalar", config=config)
        batched = SafeBrowsingClient(server, name="batched", config=config)
        expected = [reference_lookup(scalar, url) for url in first + second]
        actual = batched.check_urls(first) + batched.check_urls(second)
        for want, got in zip(expected, actual):
            assert _result_fields(got) == _result_fields(want)

    @given(urls=st.lists(_urls, min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_batch_and_scalar_reveal_identical_prefixes(self, urls: list[str]):
        # The privacy-relevant view: coalescing may repackage requests but
        # must reveal exactly the same multiset of prefixes to the provider.
        scalar_server = _build_server()
        batched_server = _build_server()
        scalar = SafeBrowsingClient(scalar_server, name="scalar")
        batched = SafeBrowsingClient(batched_server, name="batched")
        for url in urls:
            reference_lookup(scalar, url)
        batched.check_urls(urls)
        scalar_sent = sorted(
            prefix for entry in scalar_server.request_log for prefix in entry.prefixes
        )
        batched_sent = sorted(
            prefix for entry in batched_server.request_log for prefix in entry.prefixes
        )
        assert batched_sent == scalar_sent


def _sent(server: SafeBrowsingServer) -> list:
    return sorted(prefix for entry in server.request_log
                  for prefix in entry.prefixes)


class TestCheckUrlsEqualsLookupUnderPolicies:
    """The same equivalence with a privacy policy set, and at 64 bits.

    Reference and batched clients get policies built from one seed and
    share one name, so any randomness a policy draws (dummy prefixes, mix
    shuffles and replays) is the same on both sides.  The batched client
    checks one URL per ``check_urls`` call here, which is what ``lookup``
    does: a coalesced batch may legitimately send a policy different cover
    traffic (one exchange instead of one per URL), which the
    verdict-level suite ``test_prop_privacy_policies`` and the conservation
    property below cover.

    Every field must match, ``sent_prefixes`` included and in order: a
    one-URL batch credits its URL with every prefix the exchange sent, in
    send order (root first under ``one-prefix``, replayed cover prefixes
    under ``mix``), which is what the reference reports.  The provider's
    log must match request for request.
    """

    @given(urls=st.lists(_urls, max_size=14), backend=st.sampled_from(BACKENDS),
           policy=st.sampled_from(POLICIES))
    @example(urls=["http://evil.example.com/", "http://phishy.example.net/login.html"],
             backend="raw", policy="mix")
    @example(urls=["http://phishy.example.net/login.html"], backend="raw",
             policy="one-prefix")
    @settings(max_examples=60, deadline=None)
    def test_batch_of_one_equals_lookup_under_policy(self, urls: list[str],
                                                     backend: str, policy: str):
        scalar_server = _build_server()
        batched_server = _build_server()
        config = ClientConfig(store_backend=backend)
        scalar = SafeBrowsingClient(scalar_server, name="client", config=config,
                                    privacy_policy=build_policy(policy, seed="p"))
        batched = SafeBrowsingClient(batched_server, name="client", config=config,
                                     privacy_policy=build_policy(policy, seed="p"))
        expected = [reference_lookup(scalar, url) for url in urls]
        actual = [batched.check_urls([url])[0] for url in urls]
        assert [_result_fields(result) for result in actual] == \
            [_result_fields(result) for result in expected]
        assert batched.stats == scalar.stats
        assert batched_server.request_log == scalar_server.request_log

    @given(first=st.lists(_urls, max_size=15), second=st.lists(_urls, max_size=15),
           backend=st.sampled_from(BACKENDS))
    @settings(max_examples=40, deadline=None)
    def test_batches_equal_lookup_at_64_bits(self, first: list[str],
                                             second: list[str], backend: str):
        scalar_server = _build_server(prefix_bits=64)
        batched_server = _build_server(prefix_bits=64)
        config = ClientConfig(store_backend=backend, prefix_bits=64)
        scalar = SafeBrowsingClient(scalar_server, name="scalar", config=config)
        batched = SafeBrowsingClient(batched_server, name="batched", config=config)
        expected = [reference_lookup(scalar, url) for url in first + second]
        actual = batched.check_urls(first) + batched.check_urls(second)
        assert [_result_fields(result) for result in actual] == \
            [_result_fields(result) for result in expected]
        assert all(prefix.bits == 64 for result in actual
                   for prefix in result.local_hits + result.sent_prefixes)
        assert _sent(batched_server) == _sent(scalar_server)


class TestAttributionFollowsTheWire:
    """Per-URL ``sent_prefixes`` are what the provider saw, nothing more."""

    @given(first=st.lists(_urls, max_size=15), second=st.lists(_urls, max_size=15),
           backend=st.sampled_from(BACKENDS), policy=st.sampled_from(POLICIES))
    @settings(max_examples=60, deadline=None)
    def test_sent_prefixes_conserve_the_logged_prefixes(
            self, first: list[str], second: list[str], backend: str,
            policy: str):
        # Each wire prefix is credited to exactly one URL, cover traffic
        # included, so a call's credits are the prefixes its requests
        # carried — over a cold and a warm full-hash cache.
        server = _build_server()
        client = SafeBrowsingClient(server, name="client",
                                    config=ClientConfig(store_backend=backend),
                                    privacy_policy=build_policy(policy, seed="p"))
        for urls in (first, second):
            logged = len(server.request_log)
            results = client.check_urls(urls)
            credited = Counter(prefix for result in results
                               for prefix in result.sent_prefixes)
            carried = Counter(prefix for entry in server.request_log[logged:]
                              for prefix in entry.prefixes)
            assert credited == carried

    @given(first=st.lists(_urls, max_size=15), second=st.lists(_urls, max_size=15),
           backend=st.sampled_from(BACKENDS))
    @settings(max_examples=40, deadline=None)
    def test_no_policy_is_the_none_policy(self, first: list[str],
                                          second: list[str], backend: str):
        bare_server = _build_server()
        none_server = _build_server()
        config = ClientConfig(store_backend=backend)
        bare = SafeBrowsingClient(bare_server, name="client", config=config)
        none = SafeBrowsingClient(none_server, name="client", config=config,
                                  privacy_policy="none")
        for urls in (first, second):
            assert [_result_fields(result) for result in bare.check_urls(urls)] == \
                [_result_fields(result) for result in none.check_urls(urls)]
        assert bare.stats == none.stats
        assert bare_server.request_log == none_server.request_log


class TestContainsManyEqualsContains:
    @given(members=st.lists(_values32, max_size=150),
           probes=st.lists(_values32, max_size=40),
           backend=st.sampled_from(BACKENDS))
    @settings(max_examples=120, deadline=None)
    def test_bitmask_matches_scalar_membership(self, members: list[int],
                                               probes: list[int], backend: str):
        store = STORE_FACTORIES[backend](bits=32)
        store.update([Prefix.from_int(value, 32) for value in members])
        probe_prefixes = [Prefix.from_int(value, 32) for value in probes + members[:5]]
        mask = store.contains_many(probe_prefixes)
        for position, prefix in enumerate(probe_prefixes):
            assert bool(mask >> position & 1) == (prefix in store)
        assert mask >> len(probe_prefixes) == 0
