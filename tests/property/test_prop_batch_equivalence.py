"""Property tests: the batched lookup path equals the scalar oracle.

Two invariants lock the batched pipeline to the per-URL reference:

* for any URL batch and any store backend, ``check_urls`` returns exactly
  the results of ``check_url`` run URL by URL (verdicts *and* the revealed
  prefixes, cache attribution, matched lists/expressions);
* for any store content and probe list, ``contains_many`` equals the
  bitmask of per-prefix ``in`` checks.

The URL universe is deliberately tiny so batches collide heavily with the
blacklist, with each other, and with their own earlier entries — the regime
where the batched path's memoization and coalescing could plausibly diverge.
It spells some hosts and paths with percent escapes and numeric IP forms, so
the canonicalizer's slow branches feed the batched plans too.  The
equivalence is also pinned under every privacy policy and at 64-bit
prefixes.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.clock import ManualClock
from repro.datastructures import STORE_FACTORIES
from repro.hashing.prefix import Prefix
from repro.safebrowsing.client import ClientConfig, SafeBrowsingClient
from repro.safebrowsing.lists import GOOGLE_LISTS
from repro.safebrowsing.privacy import POLICY_FACTORIES, build_policy
from repro.safebrowsing.server import SafeBrowsingServer

BACKENDS = sorted(STORE_FACTORIES)
POLICIES = sorted(POLICY_FACTORIES)

BLACKLISTED = (
    "evil.example.com/malware/dropper.exe",
    "evil.example.com/",
    "phishy.example.net/login.html",
    "deep.phishy.example.net/a/b/c.html",
    "192.168.0.1/admin/",
)

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


class TestCheckUrlsEqualsCheckUrl:
    @given(urls=st.lists(_urls, max_size=30), backend=st.sampled_from(BACKENDS))
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_scalar(self, urls: list[str], backend: str):
        server = _build_server()
        config = ClientConfig(store_backend=backend)
        scalar = SafeBrowsingClient(server, name="scalar", config=config)
        batched = SafeBrowsingClient(server, name="batched", config=config)
        scalar_results = [scalar.check_url(url) for url in urls]
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
        expected = [scalar.check_url(url) for url in first + second]
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
            scalar.check_url(url)
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

    Scalar and batched clients get policies built from one seed, so any
    randomness a policy draws (dummy prefixes, mix replays) is the same on
    both sides.  The batched client checks one URL per ``check_urls`` call
    here: a coalesced batch may legitimately send a policy different cover
    traffic (one exchange instead of one per URL), which the
    verdict-level suite ``test_prop_privacy_policies`` covers.

    A URL's ``sent_prefixes`` are compared as a set: the scalar path lists
    them in send order (``one-prefix`` sends root first), the batched path
    in decomposition order.  Under ``mix`` they are not compared: mix
    replays earlier prefixes as cover, and the batched path attributes only
    the wire forms of the URL's own prefixes.  The server sees the same
    traffic either way.
    """

    @given(urls=st.lists(_urls, max_size=14), backend=st.sampled_from(BACKENDS),
           policy=st.sampled_from(POLICIES))
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
        expected = [scalar.lookup(url) for url in urls]
        actual = [result for url in urls for result in batched.check_urls([url])]
        for want, got in zip(expected, actual):
            want_fields, got_fields = _result_fields(want), _result_fields(got)
            assert got_fields[:5] + got_fields[6:] == want_fields[:5] + want_fields[6:]
            if policy != "mix":
                assert set(got.sent_prefixes) == set(want.sent_prefixes)
        assert _sent(batched_server) == _sent(scalar_server)

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
        expected = [scalar.lookup(url) for url in first + second]
        actual = batched.check_urls(first) + batched.check_urls(second)
        assert [_result_fields(result) for result in actual] == \
            [_result_fields(result) for result in expected]
        assert all(prefix.bits == 64 for result in actual
                   for prefix in result.local_hits + result.sent_prefixes)
        assert _sent(batched_server) == _sent(scalar_server)


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
