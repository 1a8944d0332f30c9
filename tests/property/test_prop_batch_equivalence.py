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
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.clock import ManualClock
from repro.datastructures import STORE_FACTORIES
from repro.hashing.prefix import Prefix
from repro.safebrowsing.client import ClientConfig, SafeBrowsingClient
from repro.safebrowsing.lists import GOOGLE_LISTS
from repro.safebrowsing.server import SafeBrowsingServer

BACKENDS = sorted(STORE_FACTORIES)

BLACKLISTED = (
    "evil.example.com/malware/dropper.exe",
    "evil.example.com/",
    "phishy.example.net/login.html",
    "deep.phishy.example.net/a/b/c.html",
)

_hosts = st.sampled_from([
    "evil.example.com",
    "phishy.example.net",
    "deep.phishy.example.net",
    "good.example.org",
    "sub.good.example.org",
])
_paths = st.sampled_from([
    "/",
    "/login.html",
    "/malware/dropper.exe",
    "/malware/",
    "/a/b/c.html",
    "/a/",
    "/index.html?q=1",
])
_urls = st.builds(lambda host, path: f"http://{host}{path}", _hosts, _paths)

_values32 = st.integers(min_value=0, max_value=2**32 - 1)


def _build_server() -> SafeBrowsingServer:
    server = SafeBrowsingServer(GOOGLE_LISTS, clock=ManualClock())
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
