"""Unit tests for the privacy-defense policy subsystem."""

from __future__ import annotations

import pytest

from repro.clock import ManualClock
from repro.exceptions import PolicyError
from repro.hashing.digests import FullHash, url_prefix
from repro.hashing.prefix import Prefix
from repro.safebrowsing.client import SafeBrowsingClient
from repro.safebrowsing.lists import GOOGLE_LISTS
from repro.safebrowsing.privacy import (
    DummyQueryPolicy,
    NoPolicy,
    OnePrefixAtATimePolicy,
    POLICY_FACTORIES,
    POLICY_KINDS,
    PrefixWideningPolicy,
    PrivacyPolicy,
    QueryMixingPolicy,
    build_policy,
)
from repro.safebrowsing.protocol import Verdict
from repro.safebrowsing.server import SafeBrowsingServer

SITE = ["target.example.com/private/report.html", "example.com/"]
TARGET = "http://target.example.com/private/report.html"
ROOT_PREFIX = url_prefix("example.com/")
DEEP_PREFIX = url_prefix("target.example.com/private/report.html")


@pytest.fixture()
def world():
    clock = ManualClock()
    server = SafeBrowsingServer(GOOGLE_LISTS, clock=clock)
    server.blacklist("goog-malware-shavar", SITE)
    return clock, server


def make_client(server, clock, policy, name="defended"):
    client = SafeBrowsingClient(server, name=name, clock=clock,
                                privacy_policy=policy)
    client.update()
    return client


class TestRegistry:
    def test_registered_names(self):
        assert POLICY_KINDS == ("dummy", "mix", "none", "one-prefix", "widen")

    def test_every_factory_builds_a_policy(self):
        for name in POLICY_FACTORIES:
            assert isinstance(build_policy(name), PrivacyPolicy)

    def test_policy_names_match_registry_keys(self):
        for name in POLICY_FACTORIES:
            assert build_policy(name).name == name

    def test_unknown_name_lists_registered_policies(self):
        with pytest.raises(PolicyError) as excinfo:
            build_policy("tor")
        message = str(excinfo.value)
        for name in POLICY_FACTORIES:
            assert name in message

    def test_invalid_parameters_rejected(self):
        with pytest.raises(PolicyError):
            DummyQueryPolicy(dummies_per_query=-1)
        with pytest.raises(PolicyError):
            PrefixWideningPolicy(widen_bits=12)
        with pytest.raises(PolicyError):
            QueryMixingPolicy(pool_size=-1)
        with pytest.raises(PolicyError):
            QueryMixingPolicy(delay_seconds=-0.1)

    def test_client_accepts_policy_by_name(self, world):
        clock, server = world
        client = make_client(server, clock, "dummy")
        assert isinstance(client.privacy_policy, DummyQueryPolicy)

    def test_client_rejects_unknown_policy_name(self, world):
        clock, server = world
        with pytest.raises(PolicyError):
            SafeBrowsingClient(server, clock=clock, privacy_policy="tor")


class TestNoPolicy:
    def test_traffic_identical_to_undefended_client(self, world):
        clock, server = world
        undefended = make_client(server, clock, None, "plain")
        undefended.lookup(TARGET)
        plain_entry = server.request_log[-1]
        defended = make_client(server, clock, NoPolicy(), "none")
        defended.lookup(TARGET)
        none_entry = server.request_log[-1]
        assert none_entry.prefixes == plain_entry.prefixes


class TestDummyQueryPolicy:
    def test_pads_scalar_requests(self, world):
        clock, server = world
        client = make_client(server, clock, "dummy")
        result = client.lookup(TARGET)
        assert result.verdict is Verdict.MALICIOUS
        assert len(result.local_hits) == 2
        assert len(result.sent_prefixes) == 10
        assert client.stats.prefixes_sent == 10
        assert client.stats.dummy_prefixes_sent == 8
        assert client.stats.extra_requests["dummy-prefixes"] == 8

    def test_pads_batched_requests(self, world):
        # The satellite bugfix: the historical wrappers let check_urls
        # bypass the mitigation; the integrated policy must not.
        clock, server = world
        client = make_client(server, clock, "dummy")
        results = client.check_urls([TARGET, "http://safe.example.org/"])
        assert [r.verdict for r in results] == [Verdict.MALICIOUS, Verdict.SAFE]
        assert len(server.request_log[-1].prefixes) == 10
        assert client.stats.dummy_prefixes_sent == 8

    def test_dummies_are_deterministic_per_prefix(self):
        policy = DummyQueryPolicy(dummies_per_query=3)
        assert policy.dummy_prefixes(ROOT_PREFIX) == policy.dummy_prefixes(ROOT_PREFIX)
        assert len(policy.dummy_prefixes(ROOT_PREFIX)) == 3

    def test_safe_url_sends_nothing(self, world):
        clock, server = world
        client = make_client(server, clock, "dummy")
        result = client.lookup("http://unrelated.example.org/")
        assert not result.contacted_server
        assert client.stats.dummy_prefixes_sent == 0


class TestOnePrefixAtATimePolicy:
    def test_only_root_revealed_when_root_confirmed(self, world):
        clock, server = world
        client = make_client(server, clock, "one-prefix")
        result = client.lookup(TARGET)
        assert result.verdict is Verdict.MALICIOUS
        assert result.sent_prefixes == (ROOT_PREFIX,)

    def test_batched_path_also_splits(self, world):
        clock, server = world
        client = make_client(server, clock, "one-prefix")
        results = client.check_urls([TARGET])
        assert results[0].verdict is Verdict.MALICIOUS
        assert server.request_log[-1].prefixes == (ROOT_PREFIX,)

    def test_revisit_does_not_leak_deeper_prefix(self, world):
        # A confirmed root stays confirmed in the cache: later visits must
        # not fall through to the deeper prefix just because the root needs
        # no re-fetch (a naive missing-only walk would leak it).
        clock, server = world
        client = make_client(server, clock, "one-prefix")
        client.lookup(TARGET)
        clock.advance(10.0)
        result = client.lookup(TARGET)
        assert result.verdict is Verdict.MALICIOUS
        assert result.sent_prefixes == ()
        revealed = {prefix for entry in server.request_log
                    for prefix in entry.prefixes}
        assert DEEP_PREFIX not in revealed

    def test_deeper_prefix_revealed_when_root_not_confirmed(self, world):
        clock, server = world
        server.unblacklist("goog-malware-shavar", ["example.com/"])
        client = make_client(server, clock, "one-prefix")
        result = client.lookup(TARGET)
        assert result.verdict is Verdict.MALICIOUS
        assert DEEP_PREFIX in result.sent_prefixes

    def test_batch_shared_prefix_withheld_by_early_stop_still_fetched(self):
        # Regression: URL A's early stop withholds a prefix that URL B (later
        # in the same batch) shares.  The cross-URL dedup used to strip it
        # from B's group on the assumption it would be fetched, and B — whose
        # only blacklist evidence it was — came back SAFE.
        clock = ManualClock()
        server = SafeBrowsingServer(GOOGLE_LISTS, clock=clock)
        server.blacklist("goog-malware-shavar",
                         ["example.com/x", "a.example.com/"])
        batch = ["http://a.example.com/x", "http://b.a.example.com/y"]

        undefended = make_client(server, clock, None, "plain")
        expected = [r.verdict for r in undefended.check_urls(batch)]
        assert expected == [Verdict.MALICIOUS, Verdict.MALICIOUS]

        defended = make_client(server, clock, "one-prefix", "careful")
        assert [r.verdict for r in defended.check_urls(batch)] == expected

    def test_extra_round_trips_accounted(self):
        # An orphan root: locally hit, never confirmable, so the walk must
        # continue to the deeper prefix — one request per revealed prefix.
        clock = ManualClock()
        server = SafeBrowsingServer(GOOGLE_LISTS, clock=clock)
        server.blacklist("goog-malware-shavar", [SITE[0]])
        server.insert_orphan_prefixes("goog-malware-shavar", [ROOT_PREFIX])
        client = make_client(server, clock, "one-prefix")
        result = client.lookup(TARGET)
        assert result.verdict is Verdict.MALICIOUS
        assert result.sent_prefixes == (ROOT_PREFIX, DEEP_PREFIX)
        assert client.stats.full_hash_requests == 2
        assert client.stats.extra_round_trips == 1


class TestPrefixWideningPolicy:
    def test_server_sees_only_wide_prefixes(self, world):
        clock, server = world
        client = make_client(server, clock, "widen")
        result = client.lookup(TARGET)
        assert result.verdict is Verdict.MALICIOUS
        entry = server.request_log[-1]
        assert entry.prefixes
        assert all(prefix.bits == 16 for prefix in entry.prefixes)
        assert {prefix.value for prefix in entry.prefixes} == {
            ROOT_PREFIX.value[:2], DEEP_PREFIX.value[:2]}

    def test_widened_responses_fill_the_real_cache(self, world):
        clock, server = world
        client = make_client(server, clock, "widen")
        client.lookup(TARGET)
        result = client.lookup(TARGET)
        assert result.verdict is Verdict.MALICIOUS
        assert result.served_from_cache
        assert client.stats.full_hash_requests == 1

    def test_non_widening_width_rejected_at_client_construction(self, world):
        # widen_bits >= the client's prefix width would silently degrade
        # the defense to a no-op labelled "widen"; it must fail loudly.
        clock, server = world
        for bits in (32, 64):
            with pytest.raises(PolicyError):
                SafeBrowsingClient(server, clock=clock,
                                   privacy_policy=PrefixWideningPolicy(widen_bits=bits))

    def test_widened_shared_prefixes_coalesce(self, world):
        clock, server = world
        policy = PrefixWideningPolicy(widen_bits=8)
        client = make_client(server, clock, policy)
        client.lookup(TARGET)
        entry = server.request_log[-1]
        # Two real prefixes may share one 8-bit widened prefix; either way
        # the request carries only deduplicated 8-bit prefixes.
        assert all(prefix.bits == 8 for prefix in entry.prefixes)
        assert len(entry.prefixes) == len(set(entry.prefixes))


class TestQueryMixingPolicy:
    def test_replays_earlier_prefixes_and_delays(self, world):
        clock, server = world
        policy = QueryMixingPolicy(pool_size=4, delay_seconds=0.5)
        client = make_client(server, clock, policy)
        before = clock.now()
        client.lookup(TARGET)
        assert clock.now() == pytest.approx(before + 0.5)
        first = set(server.request_log[-1].prefixes)
        # A different hitting URL later: its request must replay earlier
        # real prefixes as cover traffic.
        server.blacklist("goog-malware-shavar", ["other.example.net/"])
        client.update()
        client.lookup("http://other.example.net/")
        second = server.request_log[-1].prefixes
        assert set(second) & first
        assert client.stats.dummy_prefixes_sent > 0
        assert client.stats.policy_delay_seconds == pytest.approx(1.0)
        assert client.stats.extra_requests["mixed-prefixes"] > 0

    def test_replayed_cover_traffic_never_overwrites_live_cache(self):
        # Contract regression: a replayed prefix re-fetched against a
        # *mutated* database must not refresh the client's cache — an
        # undefended client would still serve the old verdict from its
        # unexpired entry, and policies may never change verdicts.
        def world_with(policy):
            clock = ManualClock()
            server = SafeBrowsingServer(GOOGLE_LISTS, clock=clock)
            server.insert_orphan_prefixes("goog-malware-shavar",
                                          [url_prefix("stale.example.net/")])
            server.blacklist("goog-malware-shavar", ["other.example.org/"])
            client = SafeBrowsingClient(server, name="stale", clock=clock,
                                        privacy_policy=policy)
            client.update()
            return clock, server, client

        def divergence_run(policy):
            clock, server, client = world_with(policy)
            # Cache an empty (orphan) answer for the stale URL: SAFE.
            assert client.lookup("http://stale.example.net/").verdict is Verdict.SAFE
            # The database mutates after the answer was cached...
            server.blacklist("goog-malware-shavar", ["stale.example.net/"])
            # ...another lookup runs an exchange (mix may replay the stale
            # prefix as cover traffic here)...
            client.lookup("http://other.example.org/")
            # ...and the stale URL must still serve its cached verdict.
            return client.lookup("http://stale.example.net/").verdict

        baseline = divergence_run(None)
        mixed = divergence_run(QueryMixingPolicy(pool_size=8, delay_seconds=0.0))
        assert mixed is baseline is Verdict.SAFE

    def test_cover_traffic_is_not_cached(self, world):
        clock, server = world
        client = make_client(server, clock, "dummy")
        client.lookup(TARGET)
        # Only the two real prefixes may occupy the full-hash cache; the 8
        # dummies are dead keys no lookup can ever probe.
        assert set(client._full_hash_cache) == {ROOT_PREFIX, DEEP_PREFIX}

    def test_mixing_is_deterministic_per_client_name(self, world):
        clock, server = world

        def trace(name):
            log_start = len(server.request_log)
            client = make_client(server, clock, QueryMixingPolicy(), name)
            client.lookup(TARGET)
            return [entry.prefixes for entry in server.request_log[log_start:]]

        assert trace("alice") == trace("alice")


class TestBatchedSentAttribution:
    """Batched results must report the traffic the policy actually sent.

    The planned (real) prefixes are not wire truth under a policy: an
    early stop withholds some, widening reshapes them, padding adds cover.
    The re-identification analysis consumes ``sent_prefixes`` as ground
    truth, so per-URL attribution must follow the wire.
    """

    def test_widen_batched_results_carry_wire_prefixes(self, world):
        clock, server = world
        client = make_client(server, clock, "widen")
        result = client.check_urls([TARGET])[0]
        assert result.sent_prefixes
        assert all(prefix.bits == 16 for prefix in result.sent_prefixes)
        assert set(result.sent_prefixes) == set(server.request_log[-1].prefixes)

    def test_one_prefix_batched_results_exclude_withheld_prefixes(self, world):
        clock, server = world
        client = make_client(server, clock, "one-prefix")
        result = client.check_urls([TARGET])[0]
        assert result.sent_prefixes == (ROOT_PREFIX,)

    def test_dummy_batched_results_include_cover_traffic(self, world):
        clock, server = world
        client = make_client(server, clock, "dummy")
        result = client.check_urls([TARGET])[0]
        assert len(result.sent_prefixes) == 10
        assert result.sent_prefixes == server.request_log[-1].prefixes

    def test_scalar_and_batched_attribution_agree(self, world):
        clock, server = world
        scalar = make_client(server, clock, "widen", "scalar")
        batched = make_client(server, clock, "widen", "batched")
        scalar_result = scalar.lookup(TARGET)
        batched_result = batched.check_urls([TARGET])[0]
        assert batched_result.sent_prefixes == scalar_result.sent_prefixes

    def test_shared_prefix_is_credited_to_the_first_url_only(self, world):
        # Both URLs hit the domain root; its dummy block crossed the wire
        # once, so only the first URL may claim it.
        clock, server = world
        client = make_client(server, clock, "dummy")
        first, second = client.check_urls([TARGET, "http://other.example.com/"])
        wire = server.request_log[-1].prefixes
        assert first.sent_prefixes == wire and len(wire) == 10
        assert second.sent_prefixes == ()
        assert second.served_from_cache and not first.served_from_cache

    def test_mix_replays_go_to_the_first_url_of_their_request(self):
        clock = ManualClock()
        server = SafeBrowsingServer(GOOGLE_LISTS, clock=clock)
        server.blacklist("goog-malware-shavar", [*SITE, "evil.example.net/"])
        client = make_client(server, clock, "mix")
        client.lookup(TARGET)  # seeds the replay pool with TARGET's prefixes
        cached, fresh = client.check_urls([TARGET, "http://evil.example.net/"])
        wire = server.request_log[-1].prefixes
        assert {ROOT_PREFIX, DEEP_PREFIX} < set(wire)
        assert cached.sent_prefixes == () and cached.served_from_cache
        assert fresh.sent_prefixes == wire


class TestVariableWidthFullHashQueries:
    def test_exact_width_unchanged(self, world):
        _, server = world
        database = server.database["goog-malware-shavar"]
        assert database.full_hashes_matching(ROOT_PREFIX) == \
            database.full_hashes_for(ROOT_PREFIX)

    def test_wide_query_returns_superset(self, world):
        _, server = world
        database = server.database["goog-malware-shavar"]
        wide = Prefix(ROOT_PREFIX.value[:2], 16)
        matches = database.full_hashes_matching(wide)
        assert FullHash.of("example.com/") in matches

    def test_long_query_filters_by_digest(self, world):
        _, server = world
        database = server.database["goog-malware-shavar"]
        digest = FullHash.of("example.com/")
        long = Prefix(digest.digest[:8], 64)
        assert digest in database.full_hashes_matching(long)
        wrong = Prefix(digest.digest[:7] + bytes([digest.digest[7] ^ 0xFF]), 64)
        assert digest not in database.full_hashes_matching(wrong)

    def test_wide_query_ignores_orphans(self, world):
        _, server = world
        database = server.database["goog-malware-shavar"]
        orphan = url_prefix("orphan.example.org/")
        database.add_orphan_prefix(orphan)
        wide = Prefix(orphan.value[:1], 8)
        for full_hash in database.full_hashes_matching(wide):
            assert full_hash.prefix(32) != orphan
