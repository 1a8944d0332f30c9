"""Unit tests for the Section 8 mitigations."""

from __future__ import annotations

import pytest

from repro.analysis.inverted_index import PrefixInvertedIndex
from repro.analysis.mitigations import compare_mitigations
from repro.analysis.reidentification import ReidentificationEngine
from repro.clock import ManualClock
from repro.datastructures.vectorized import NUMPY_AVAILABLE
from repro.exceptions import PolicyError
from repro.hashing.digests import url_prefix
from repro.safebrowsing.client import SafeBrowsingClient
from repro.safebrowsing.lists import GOOGLE_LISTS
from repro.safebrowsing.privacy import DummyQueryPolicy, OnePrefixAtATimePolicy
from repro.safebrowsing.protocol import Verdict
from repro.safebrowsing.server import SafeBrowsingServer

SITE_URLS = [
    "http://target.example.com/",
    "http://target.example.com/private/",
    "http://target.example.com/private/report.html",
    "http://example.com/",
]
TARGET = "http://target.example.com/private/report.html"


@pytest.fixture()
def tracked_setup():
    """A server whose malware list tracks TARGET (exact + domain root)."""
    clock = ManualClock()
    server = SafeBrowsingServer(GOOGLE_LISTS, clock=clock)
    server.blacklist("goog-malware-shavar",
                     ["target.example.com/private/report.html", "example.com/"])
    index = PrefixInvertedIndex()
    index.add_urls(SITE_URLS)
    engine = ReidentificationEngine(index)
    return clock, server, engine


def make_client(server, clock, name, policy=None):
    client = SafeBrowsingClient(server, name=name, clock=clock,
                                privacy_policy=policy)
    client.update()
    return client


def dummy_client(server, clock, name="dummy", dummies_per_query=4):
    return make_client(server, clock, name,
                       DummyQueryPolicy(dummies_per_query=dummies_per_query))


def one_prefix_client(server, clock, name="careful"):
    return make_client(server, clock, name, OnePrefixAtATimePolicy())


class TestDummyQueryPolicy:
    def test_dummies_are_deterministic(self):
        policy = DummyQueryPolicy(dummies_per_query=3)
        prefix = url_prefix("example.com/")
        assert policy.dummy_prefixes(prefix) == policy.dummy_prefixes(prefix)
        assert len(policy.dummy_prefixes(prefix)) == 3

    def test_negative_dummy_count_rejected(self):
        with pytest.raises(PolicyError):
            DummyQueryPolicy(dummies_per_query=-1)

    def test_lookup_pads_requests(self, tracked_setup):
        clock, server, _ = tracked_setup
        result = dummy_client(server, clock).lookup(TARGET)
        # 2 real hits, each padded with 4 dummies.
        assert len(result.local_hits) == 2
        assert len(result.sent_prefixes) == 10
        assert result.verdict is Verdict.MALICIOUS

    def test_safe_url_sends_nothing(self, tracked_setup):
        clock, server, _ = tracked_setup
        result = dummy_client(server, clock).lookup("http://unrelated.example.org/")
        assert not result.contacted_server

    def test_dummy_queries_do_not_prevent_reidentification(self, tracked_setup):
        # The paper's conclusion: the two real prefixes still co-occur, so the
        # best-coverage attack recovers the visited URL despite the dummies.
        clock, server, engine = tracked_setup
        result = dummy_client(server, clock).lookup(TARGET)
        outcome = engine.reidentify_best_coverage(result.sent_prefixes)
        assert outcome.identified_url == TARGET

    def test_stats_record_dummy_prefixes(self, tracked_setup):
        clock, server, _ = tracked_setup
        client = dummy_client(server, clock)
        client.lookup(TARGET)
        assert client.stats.extra_requests["dummy-prefixes"] == 8


class TestOnePrefixAtATimePolicy:
    def test_only_root_prefix_sent_when_root_is_blacklisted(self, tracked_setup):
        clock, server, _ = tracked_setup
        result = one_prefix_client(server, clock).lookup(TARGET)
        # The domain root (example.com/) is blacklisted, so the first query
        # already confirms it and the deeper prefix is never revealed.
        assert result.sent_prefixes == (url_prefix("example.com/"),)
        assert result.verdict is Verdict.MALICIOUS

    def test_provider_only_learns_the_domain(self, tracked_setup):
        clock, server, engine = tracked_setup
        result = one_prefix_client(server, clock).lookup(TARGET)
        outcome = engine.reidentify_best_coverage(result.sent_prefixes)
        assert outcome.identified_url is None
        assert outcome.identified_domain == "example.com"

    def test_safe_url_sends_nothing(self, tracked_setup):
        clock, server, _ = tracked_setup
        result = one_prefix_client(server, clock).lookup("http://unrelated.example.org/")
        assert not result.contacted_server

    def test_deeper_prefix_revealed_when_root_not_confirmed(self, tracked_setup):
        clock, server, _ = tracked_setup
        # Blacklist only the deep page (no domain-root entry): the client must
        # work through the hits until the malicious one is confirmed.
        server.unblacklist("goog-malware-shavar", ["example.com/"])
        result = one_prefix_client(server, clock, "careful2").lookup(TARGET)
        assert result.verdict is Verdict.MALICIOUS
        assert url_prefix("target.example.com/private/report.html") in result.sent_prefixes


class TestPolicyPortRegression:
    """The Section 8 mitigations are client privacy policies.

    Two guarantees hold since the wrapper classes were ported to the policy
    layer: the batched path is no bypass, and the Section 8 experiment's
    re-identification numbers are bit-for-bit the wrapper era's (captured
    from the pre-port implementation at SMALL scale).
    """

    def test_batched_path_no_longer_bypasses_dummy_queries(self, tracked_setup):
        # The historical wrapper only intercepted lookup(): check_urls sent
        # the bare prefixes.  The policy is installed on the client itself,
        # so the batched request must be padded too.
        clock, server, _ = tracked_setup
        client = dummy_client(server, clock, "dummy-batched")
        results = client.check_urls([TARGET])
        assert results[0].verdict is Verdict.MALICIOUS
        assert len(server.request_log[-1].prefixes) == 10
        assert client.stats.dummy_prefixes_sent == 8

    def test_batched_path_no_longer_bypasses_one_prefix(self, tracked_setup):
        clock, server, _ = tracked_setup
        client = one_prefix_client(server, clock, "careful-batched")
        results = client.check_urls([TARGET])
        assert results[0].verdict is Verdict.MALICIOUS
        assert server.request_log[-1].prefixes == (url_prefix("example.com/"),)

    @pytest.mark.skipif(not NUMPY_AVAILABLE,
                        reason="the mitigation experiment is numpy-backed")
    def test_compare_mitigations_numbers_pinned_across_port(self):
        # Golden numbers from the pre-port wrapper implementation (SMALL
        # scale): the port may change plumbing, not the Section 8 result.
        from repro.experiments.mitigation_comparison import run_mitigation_experiment

        experiment = run_mitigation_experiment()
        dummy = experiment.dummy_comparison
        assert dummy.urls_evaluated == 5
        assert (dummy.baseline_url_rate, dummy.mitigated_url_rate) == (1.0, 1.0)
        assert (dummy.baseline_domain_rate, dummy.mitigated_domain_rate) == (1.0, 1.0)
        assert dummy.average_prefixes_sent_baseline == pytest.approx(2.0)
        assert dummy.average_prefixes_sent_mitigated == pytest.approx(10.0)

        one_prefix = experiment.one_prefix_comparison
        assert one_prefix.urls_evaluated == 5
        assert (one_prefix.baseline_url_rate, one_prefix.mitigated_url_rate) == (1.0, 0.0)
        assert (one_prefix.baseline_domain_rate,
                one_prefix.mitigated_domain_rate) == (1.0, 1.0)
        assert one_prefix.average_prefixes_sent_baseline == pytest.approx(2.0)
        assert one_prefix.average_prefixes_sent_mitigated == pytest.approx(1.0)


class TestComparisonHarness:
    def test_compare_mitigations_structure(self, tracked_setup):
        clock, server, engine = tracked_setup
        baseline_client = make_client(server, clock, "baseline")
        baseline = [baseline_client.lookup(TARGET)]
        mitigated = [one_prefix_client(server, clock).lookup(TARGET)]
        comparison = compare_mitigations("one-prefix", baseline, mitigated, engine)
        assert comparison.urls_evaluated == 1
        assert comparison.baseline_url_rate == 1.0
        assert comparison.mitigated_url_rate == 0.0
        assert comparison.url_rate_improvement == pytest.approx(1.0)
        assert comparison.average_prefixes_sent_baseline >= 2
        assert comparison.average_prefixes_sent_mitigated == 1
