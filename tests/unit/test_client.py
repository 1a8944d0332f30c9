"""Unit tests for the Safe Browsing client (Figure 3 lookup flow)."""

from __future__ import annotations

import pytest

from repro.clock import ManualClock
from repro.exceptions import UpdateError
from repro.hashing import prefix as prefix_module
from repro.hashing.digests import url_prefix
from repro.hashing.prefix import Prefix
from repro.safebrowsing.client import ClientConfig, SafeBrowsingClient
from repro.safebrowsing.lists import GOOGLE_LISTS
from repro.safebrowsing.protocol import Verdict
from repro.safebrowsing.server import SafeBrowsingServer

MALWARE_URL = "http://evil.example.com/malware/dropper.exe"
MALWARE_DOMAIN_URL = "http://evil.example.com/some/other/page.html"
PHISHING_URL = "http://phishy.example.net/login.html"
SAFE_URL = "http://totally.fine.example.org/index.html"


class TestClientConfig:
    def test_default_backend_tracks_numpy_availability(self):
        # The vectorized numpy store is the default lookup path when numpy
        # is importable; the packed raw array it vectorizes remains the
        # fallback so a numpy-less install still works.
        from repro.datastructures.vectorized import NUMPY_AVAILABLE
        from repro.safebrowsing.client import DEFAULT_STORE_BACKEND

        expected = "numpy" if NUMPY_AVAILABLE else "raw"
        assert DEFAULT_STORE_BACKEND == expected
        assert ClientConfig().store_backend == DEFAULT_STORE_BACKEND

    def test_unknown_backend_rejected(self):
        with pytest.raises(UpdateError):
            ClientConfig(store_backend="trie")

    @pytest.mark.parametrize("retired", ["sorted-array", "mmap", "numpy-mmap"])
    def test_retired_backends_rejected_with_registered_names(self, retired):
        from repro.datastructures import STORE_FACTORIES

        with pytest.raises(UpdateError) as excinfo:
            ClientConfig(store_backend=retired)
        for name in STORE_FACTORIES:
            assert name in str(excinfo.value)


class TestUpdate:
    def test_update_downloads_all_prefixes(self, google_server, clock):
        client = SafeBrowsingClient(google_server, clock=clock)
        applied = client.update()
        assert applied >= 2
        assert client.local_database_size() == 4

    def test_update_is_incremental(self, google_server, clock):
        client = SafeBrowsingClient(google_server, clock=clock)
        client.update()
        google_server.blacklist("goog-malware-shavar", ["new.threat.example/"])
        clock.advance(10_000)
        applied = client.update()
        assert applied == 1
        assert client.local_database_size() == 5

    def test_needs_update_follows_poll_interval(self, google_server, clock):
        client = SafeBrowsingClient(google_server, clock=clock)
        assert client.needs_update()
        client.update()
        assert not client.needs_update()
        clock.advance(google_server.poll_interval + 1)
        assert client.needs_update()

    def test_subscribes_to_url_lists_only(self, google_server, clock):
        client = SafeBrowsingClient(google_server, clock=clock)
        assert set(client.subscribed_lists) == {
            descriptor.name for descriptor in GOOGLE_LISTS if descriptor.is_url_list
        }

    def test_explicit_list_subscription(self, google_server, clock):
        client = SafeBrowsingClient(google_server, lists=["goog-malware-shavar"], clock=clock)
        client.update()
        assert client.subscribed_lists == ("goog-malware-shavar",)
        assert client.local_database_size() == 2

    def test_descriptor_list_subscription(self, google_server, clock):
        client = SafeBrowsingClient(google_server, lists=GOOGLE_LISTS, clock=clock)
        assert client.update() > 0
        assert set(client.subscribed_lists) == {
            descriptor.name for descriptor in GOOGLE_LISTS
        }

    def test_sub_chunks_remove_prefixes(self, google_server, clock):
        client = SafeBrowsingClient(google_server, clock=clock)
        client.update()
        google_server.unblacklist("goog-malware-shavar", ["evil.example.com/"])
        clock.advance(10_000)
        client.update()
        assert client.local_database_size() == 3

    def test_bloom_backend_cannot_apply_sub_chunks(self, google_server, clock):
        client = SafeBrowsingClient(google_server, clock=clock,
                                    config=ClientConfig(store_backend="bloom"))
        client.update()
        google_server.unblacklist("goog-malware-shavar", ["evil.example.com/"])
        clock.advance(10_000)
        with pytest.raises(UpdateError):
            client.update()


class TestLookupFlow:
    def test_blacklisted_url_is_malicious(self, updated_client):
        result = updated_client.lookup(MALWARE_URL)
        assert result.verdict is Verdict.MALICIOUS
        assert result.contacted_server
        assert "goog-malware-shavar" in result.matched_lists

    def test_safe_url_never_contacts_server(self, updated_client, google_server):
        result = updated_client.lookup(SAFE_URL)
        assert result.verdict is Verdict.SAFE
        assert not result.contacted_server
        assert google_server.stats.full_hash_requests == 0

    def test_url_on_blacklisted_domain_is_malicious(self, updated_client):
        # evil.example.com/ itself is blacklisted, so every page on it matches.
        result = updated_client.lookup(MALWARE_DOMAIN_URL)
        assert result.verdict is Verdict.MALICIOUS
        assert "evil.example.com/" in result.matched_expressions

    def test_phishing_list_matched(self, updated_client):
        result = updated_client.lookup(PHISHING_URL)
        assert result.verdict is Verdict.MALICIOUS
        assert result.matched_lists == ("googpub-phish-shavar",)

    def test_sent_prefixes_are_the_local_hits(self, updated_client):
        result = updated_client.lookup(MALWARE_URL)
        assert set(result.sent_prefixes) == set(result.local_hits)
        assert url_prefix("evil.example.com/") in result.sent_prefixes

    def test_multiple_prefixes_sent_for_deeply_blacklisted_url(self, updated_client):
        # Both the exact URL and the domain root are blacklisted: two hits.
        result = updated_client.lookup(MALWARE_URL)
        assert len(result.sent_prefixes) == 2

    def test_full_hash_cache_prevents_second_request(self, updated_client, google_server):
        updated_client.lookup(MALWARE_URL)
        requests_after_first = google_server.stats.full_hash_requests
        result = updated_client.lookup(MALWARE_URL)
        assert google_server.stats.full_hash_requests == requests_after_first
        assert result.served_from_cache
        assert result.verdict is Verdict.MALICIOUS

    def test_cache_expires_after_lifetime(self, google_server, clock):
        config = ClientConfig(full_hash_cache_seconds=100.0, auto_update=False)
        client = SafeBrowsingClient(google_server, clock=clock, config=config)
        client.update()
        client.lookup(MALWARE_URL)
        clock.advance(101.0)
        client.lookup(MALWARE_URL)
        assert google_server.stats.full_hash_requests == 2

    def test_auto_update_triggered_by_lookup(self, google_server, clock):
        client = SafeBrowsingClient(google_server, clock=clock)
        # No explicit update(); lookup must refresh the local database first.
        result = client.lookup(MALWARE_URL)
        assert result.verdict is Verdict.MALICIOUS

    def test_false_positive_prefix_is_not_malicious(self, google_server, clock):
        # Insert an orphan prefix equal to the prefix of a benign URL: the
        # local database hits, the server is contacted, but no full digest
        # matches, so the verdict stays SAFE (Figure 3's right branch).
        benign_expression = "innocent.example.org/page.html"
        google_server.insert_orphan_prefixes("goog-malware-shavar",
                                              [url_prefix(benign_expression)])
        client = SafeBrowsingClient(google_server, clock=clock)
        client.update()
        result = client.lookup("http://innocent.example.org/page.html")
        assert result.verdict is Verdict.SAFE
        assert result.contacted_server

    def test_stats_counters(self, updated_client):
        updated_client.lookup(MALWARE_URL)
        updated_client.lookup(SAFE_URL)
        stats = updated_client.stats
        assert stats.urls_checked == 2
        assert stats.local_hits == 1
        assert stats.full_hash_requests == 1
        assert stats.malicious_verdicts == 1

    def test_cookie_attached_to_requests(self, updated_client, google_server):
        updated_client.lookup(MALWARE_URL)
        assert google_server.request_log[0].cookie == updated_client.cookie

    def test_memory_accounting_exposed(self, updated_client):
        assert updated_client.local_memory_bytes() > 0


class TestBatchedLookupMemos:
    def test_check_urls_basic_verdicts(self, updated_client):
        results = updated_client.check_urls([MALWARE_URL, SAFE_URL])
        assert results[0].verdict is Verdict.MALICIOUS
        assert results[1].verdict is Verdict.SAFE

    def test_plan_cache_size_zero_disables_cross_batch_memos(self, google_server, clock):
        config = ClientConfig(plan_cache_size=0)
        client = SafeBrowsingClient(google_server, clock=clock, config=config)
        client.update()
        client.check_urls([MALWARE_URL, SAFE_URL, SAFE_URL])
        assert client._plan_cache == {}
        assert client._hash_cache == {}
        assert client._safe_result_cache == {}
        assert not client._known_hits
        assert not client._known_misses

    def test_empty_batch_has_no_side_effects(self, google_server, clock):
        client = SafeBrowsingClient(google_server, clock=clock)
        assert client.check_urls([]) == []
        assert google_server.stats.update_requests == 0

    def test_small_positive_cache_limit_still_memoizes(self, google_server, clock):
        config = ClientConfig(plan_cache_size=1)
        client = SafeBrowsingClient(google_server, clock=clock, config=config)
        client.update()
        client.check_urls([SAFE_URL, MALWARE_URL])
        # The newest entry survives the trim instead of everything vanishing.
        assert len(client._plan_cache) == 1

    def test_membership_memos_bounded_by_plan_cache_size(self, google_server, clock):
        config = ClientConfig(plan_cache_size=4)
        client = SafeBrowsingClient(google_server, clock=clock, config=config)
        client.update()
        urls = [f"http://site-{index}.example.org/page.html" for index in range(20)]
        client.check_urls(urls)
        limit = config.plan_cache_size
        assert len(client._plan_cache) <= limit
        assert len(client._hash_cache) <= limit
        assert len(client._known_hits) <= limit
        assert len(client._known_misses) <= limit

    def test_applied_update_clears_membership_memos(self, google_server, clock):
        client = SafeBrowsingClient(google_server, clock=clock)
        client.update()
        url = "http://soon.bad.example.org/"
        assert client.check_urls([url])[0].verdict is Verdict.SAFE
        google_server.blacklist("goog-malware-shavar", ["soon.bad.example.org/"])
        clock.advance(google_server.poll_interval + 1)
        assert client.check_urls([url])[0].verdict is Verdict.MALICIOUS

    def test_memos_are_keyed_by_prefix_bytes(self, updated_client):
        updated_client.check_urls([MALWARE_URL, SAFE_URL])
        for _, _, prefixes in updated_client._plan_cache.values():
            assert all(type(raw) is bytes and len(raw) == 4 for raw in prefixes)
        for _, raw in updated_client._hash_cache.values():
            assert type(raw) is bytes and len(raw) == 4
        assert all(type(raw) is bytes for raw in updated_client._known_misses)
        # A hit keeps its Prefix, so later batches reuse the same object.
        assert updated_client._known_hits
        for raw, prefix in updated_client._known_hits.items():
            assert type(raw) is bytes and prefix == Prefix(raw, 32)
        hit = updated_client.check_urls([MALWARE_URL])[0].local_hits[0]
        assert hit is updated_client._known_hits[hit.value]

    def test_safe_unseen_batch_builds_no_prefix(self, updated_client, monkeypatch):
        # Prefix objects are built only for URLs with a local hit: a batch of
        # new SAFE URLs hashes, probes and answers on raw bytes alone.
        built = []
        post_init = Prefix.__post_init__
        valid_prefix = prefix_module._valid_prefix

        def counting_post_init(prefix):
            built.append(prefix)
            post_init(prefix)

        def counting_valid_prefix(value, bits):
            built.append(value)
            return valid_prefix(value, bits)

        monkeypatch.setattr(Prefix, "__post_init__", counting_post_init)
        monkeypatch.setattr(prefix_module, "_valid_prefix", counting_valid_prefix)
        urls = [f"http://site-{index}.example.org/a/b.html?q={index}"
                for index in range(50)]
        results = updated_client.check_urls(urls)
        assert all(result.verdict is Verdict.SAFE for result in results)
        assert built == []
        assert len(updated_client._known_misses) > len(urls)


class TestRawPrefixInterface:
    def test_send_raw_prefixes_logs_request(self, updated_client, google_server):
        prefix = url_prefix("evil.example.com/")
        response = updated_client.send_raw_prefixes([prefix])
        assert len(response.matches_for(prefix)) == 1
        assert google_server.stats.full_hash_requests == 1
