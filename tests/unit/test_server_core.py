"""Unit tests for the server core's cache and bounded request log."""

from __future__ import annotations

import pytest

from repro.clock import ManualClock
from repro.hashing.digests import FullHash, url_prefix
from repro.hashing.prefix import Prefix
from repro.safebrowsing.cookie import SafeBrowsingCookie
from repro.safebrowsing.lists import GOOGLE_LISTS
from repro.safebrowsing.protocol import FullHashRequest, UpdateRequest, serve_full_hash, serve_update
from repro.safebrowsing.server import SafeBrowsingServer, ServerCore

COOKIE = SafeBrowsingCookie("core-test-cookie")


def make_server(**kwargs) -> SafeBrowsingServer:
    server = SafeBrowsingServer(GOOGLE_LISTS, clock=ManualClock(), **kwargs)
    server.blacklist("goog-malware-shavar", ["evil.example.com/", "bad.example.org/x"])
    return server


def request_for(*expressions: str) -> FullHashRequest:
    return FullHashRequest(cookie=COOKIE,
                           prefixes=tuple(url_prefix(e) for e in expressions))


class TestResponseCache:
    def test_identical_batch_hits_the_cache(self):
        server = make_server()
        first = server.handle_full_hash(request_for("evil.example.com/"))
        second = server.handle_full_hash(request_for("evil.example.com/"))
        assert second.matches == first.matches
        assert server.stats.response_cache_hits == 1
        assert server.stats.response_cache_misses == 1

    def test_cached_batches_still_log_and_count(self):
        server = make_server()
        server.handle_full_hash(request_for("evil.example.com/"))
        server.handle_full_hash(request_for("evil.example.com/"))
        assert server.stats.full_hash_requests == 2
        assert server.stats.prefixes_received == 2
        assert len(server.request_log) == 2

    def test_ttl_expires_entries(self):
        server = make_server(response_cache_seconds=10.0)
        server.handle_full_hash(request_for("evil.example.com/"))
        server.clock.advance(11.0)
        server.handle_full_hash(request_for("evil.example.com/"))
        assert server.stats.response_cache_hits == 0
        assert server.stats.response_cache_misses == 2

    def test_database_mutation_invalidates(self):
        server = make_server()
        prefix = url_prefix("evil.example.com/")
        before = server.handle_full_hash(request_for("evil.example.com/"))
        assert before.matches
        server.unblacklist("goog-malware-shavar", ["evil.example.com/"])
        after = server.handle_full_hash(request_for("evil.example.com/"))
        assert after.matches_for(prefix) == ()
        assert server.stats.response_cache_hits == 0

    def test_zero_ttl_disables_caching(self):
        server = make_server(response_cache_seconds=0.0)
        server.handle_full_hash(request_for("evil.example.com/"))
        server.handle_full_hash(request_for("evil.example.com/"))
        assert server.stats.response_cache_hits == 0
        assert server.stats.response_cache_misses == 0

    def test_cache_size_is_bounded(self):
        server = make_server(response_cache_entries=4)
        for value in range(20):
            prefix = Prefix.from_int(value, 32)
            server.handle_full_hash(FullHashRequest(cookie=COOKIE, prefixes=(prefix,)))
        assert len(server._response_cache) <= 4
        # The most recent batch survived the evictions.
        last = Prefix.from_int(19, 32)
        server.handle_full_hash(FullHashRequest(cookie=COOKIE, prefixes=(last,)))
        assert server.stats.response_cache_hits == 1

    def test_pruning_prefers_dead_entries(self):
        server = make_server(response_cache_entries=2)
        live = request_for("evil.example.com/")
        server.handle_full_hash(live)
        server.clock.advance(1.0)
        # A second distinct batch fills the cache; the third insert must
        # purge by TTL once the first entry expires, keeping the live one.
        server.handle_full_hash(request_for("bad.example.org/x"))
        server.clock.advance(500.0)  # both expired now
        server.handle_full_hash(request_for("evil.example.com/",
                                            "bad.example.org/x"))
        assert len(server._response_cache) == 1

    def test_refreshed_entry_moves_to_the_end(self):
        """A recomputed expired entry is the newest: the prune evicts others."""
        server = make_server(response_cache_entries=3,
                             response_cache_seconds=100.0)
        a, b = request_for("evil.example.com/"), request_for("bad.example.org/x")
        c = request_for("evil.example.com/", "bad.example.org/x")
        d = FullHashRequest(cookie=COOKIE, prefixes=(Prefix.from_int(7, 32),))
        server.handle_full_hash(a)                     # t=0, expires at 100
        server.clock.advance(1.0)
        server.handle_full_hash(b)                     # t=1, expires at 101
        server.clock.advance(99.5)
        server.handle_full_hash(a)                     # t=100.5: recomputed
        server.handle_full_hash(c)
        server.handle_full_hash(d)                     # full: evicts B, not A
        assert server.stats.response_cache_hits == 0
        server.handle_full_hash(a)
        assert server.stats.response_cache_hits == 1
        server.handle_full_hash(b)
        assert server.stats.response_cache_hits == 1

    def test_prune_stops_at_the_first_live_entry(self):
        server = make_server(response_cache_entries=3,
                             response_cache_seconds=10.0)
        requests = [FullHashRequest(cookie=COOKIE,
                                    prefixes=(Prefix.from_int(value, 32),))
                    for value in range(4)]
        server.handle_full_hash(requests[0])           # expires at 10
        server.clock.advance(5.0)
        server.handle_full_hash(requests[1])           # expires at 15
        server.clock.advance(7.0)
        server.handle_full_hash(requests[2])           # t=12: no prune yet
        server.handle_full_hash(requests[3])           # full: pops only [0]
        assert len(server._response_cache) == 3
        for request in requests[1:]:
            server.handle_full_hash(request)
        assert server.stats.response_cache_hits == 3

    def test_widened_and_stored_width_prefixes_keep_their_own_matches(self):
        """A 16-bit query and a 32-bit query sharing leading bytes."""
        server = make_server()
        narrow = url_prefix("evil.example.com/")
        wide = Prefix(narrow.value[:2], 16)
        database = server.database["goog-malware-shavar"]
        neighbour = FullHash(narrow.value[:2] + bytes(30))
        database.add_full_hash(neighbour)
        database.commit_pending()
        evil = database.full_hashes_for(narrow)
        expected = {
            wide: tuple(sorted((*evil, neighbour), key=lambda fh: fh.digest)),
            narrow: evil,
        }
        for prefixes in ((wide, narrow), (narrow, wide)):
            request = FullHashRequest(cookie=COOKIE, prefixes=prefixes)
            for _ in range(2):                         # uncached, then cached
                response = server.handle_full_hash(request)
                assert [match.prefix for match in response.matches] == [
                    prefix for prefix in prefixes for _ in expected[prefix]]
                for prefix in prefixes:
                    found = response.matches_for(prefix)
                    assert tuple(match.full_hash for match in found) == \
                        expected[prefix]
                    assert all(match.prefix.bits == prefix.bits
                               for match in found)
        assert server.stats.response_cache_hits == 3
        assert server.stats.response_cache_misses == 1

    def test_invalid_cache_bound_rejected(self):
        with pytest.raises(ValueError):
            make_server(response_cache_entries=0)

    def test_permuted_batch_hits_the_cache(self):
        """The cache key is order-insensitive: same prefixes, same entry."""
        server = make_server()
        p1 = url_prefix("evil.example.com/")
        p2 = url_prefix("bad.example.org/x")
        first = server.handle_full_hash(FullHashRequest(cookie=COOKIE,
                                                        prefixes=(p1, p2)))
        permuted = server.handle_full_hash(FullHashRequest(cookie=COOKIE,
                                                           prefixes=(p2, p1)))
        assert server.stats.response_cache_hits == 1
        assert server.stats.response_cache_misses == 1
        # Responses are rebuilt per request, so each keeps its own order.
        assert first.matches_for(p1) == permuted.matches_for(p1)
        assert first.matches_for(p2) == permuted.matches_for(p2)
        assert [match.prefix for match in first.matches] == [p1, p2]
        assert [match.prefix for match in permuted.matches] == [p2, p1]

    def test_permuted_batch_with_duplicates_hits_the_cache(self):
        server = make_server()
        p1 = url_prefix("evil.example.com/")
        p2 = url_prefix("bad.example.org/x")
        server.handle_full_hash(FullHashRequest(cookie=COOKIE,
                                                prefixes=(p1, p2, p1)))
        response = server.handle_full_hash(FullHashRequest(cookie=COOKIE,
                                                           prefixes=(p2, p1)))
        assert server.stats.response_cache_hits == 1
        assert [match.prefix for match in response.matches] == [p2, p1]

    def test_scripted_counters_across_a_commit(self):
        """A version move drops every entry; hit/miss counting is unchanged."""
        server = make_server()
        a = request_for("evil.example.com/")
        b = request_for("bad.example.org/x")
        c = request_for("evil.example.com/", "bad.example.org/x")
        script = [(a, "miss"), (a, "hit"), (b, "miss"), (c, "miss"),
                  (b, "hit"), "commit", (a, "miss"), (b, "miss"), (a, "hit"),
                  "commit-nothing", (b, "hit")]
        for step in script:
            if step == "commit":
                server.blacklist("goog-malware-shavar", ["new.example.net/"])
                server.database.commit()
                continue
            if step == "commit-nothing":
                server.database.commit()
                continue
            request, outcome = step
            hits = server.stats.response_cache_hits
            misses = server.stats.response_cache_misses
            server.handle_full_hash(request)
            assert (server.stats.response_cache_hits - hits,
                    server.stats.response_cache_misses - misses) == \
                ((1, 0) if outcome == "hit" else (0, 1))
        assert server.stats.response_cache_hits == 4
        assert server.stats.response_cache_misses == 5
        # The pre-commit entries (c included) are gone, not waiting for pruning.
        assert len(server._response_cache) == 2

    def test_duplicate_prefixes_expand_in_request_order(self):
        server = make_server()
        prefix = url_prefix("evil.example.com/")
        request = FullHashRequest(cookie=COOKIE, prefixes=(prefix, prefix))
        response = server.handle_full_hash(request)
        # One match per occurrence, exactly as the uncached path serves.
        assert len(response.matches) == 2
        cached = server.handle_full_hash(request)
        assert cached.matches == response.matches


class TestBoundedRequestLog:
    def test_unbounded_by_default(self):
        server = make_server()
        for _ in range(50):
            server.handle_full_hash(request_for("evil.example.com/"))
        assert len(server.request_log) == 50
        assert server.stats.log_entries_evicted == 0

    def test_rotation_keeps_the_most_recent(self):
        server = make_server(max_log_entries=3)
        for index in range(5):
            server.clock.advance(1.0)
            server.handle_full_hash(request_for("evil.example.com/"))
        log = server.request_log
        assert len(log) == 3
        assert [entry.timestamp for entry in log] == [3.0, 4.0, 5.0]
        assert server.stats.log_entries_evicted == 2

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            make_server(max_log_entries=0)


class TestEndpointHandlers:
    def test_serve_update_rejects_wrong_message(self):
        from repro.exceptions import ProtocolError

        server = make_server()
        with pytest.raises(ProtocolError):
            serve_update(server, request_for("evil.example.com/"))

    def test_serve_full_hash_rejects_wrong_message(self):
        from repro.exceptions import ProtocolError

        server = make_server()
        with pytest.raises(ProtocolError):
            serve_full_hash(server, UpdateRequest(cookie=COOKIE, states=()))

    def test_facade_routes_through_the_handlers(self):
        server = make_server()
        response = server.handle_full_hash(request_for("evil.example.com/"))
        assert response.matches
        assert server.stats.full_hash_requests == 1


class TestCoreMembership:
    def test_full_hash_answer_agrees_with_membership(self):
        server = make_server()
        prefix = url_prefix("evil.example.com/")
        response = server.handle_full_hash(request_for("evil.example.com/"))
        assert {match.prefix for match in response.matches} == {prefix}
        assert server.database["goog-malware-shavar"].contains_prefix(prefix)
        missing = Prefix.from_int(123456, 32)
        assert not server.database["goog-malware-shavar"].contains_prefix(missing)

    def test_contains_many_routes_across_lists(self):
        server = make_server()
        probes = [url_prefix("evil.example.com/"), Prefix.from_int(99, 32),
                  url_prefix("bad.example.org/x")]
        assert server.database.contains_many(probes) == 0b101

    def test_bare_core_has_no_facade_handlers(self):
        core = ServerCore(GOOGLE_LISTS, clock=ManualClock())
        assert not hasattr(core, "handle_update")
        response = core.process_update(UpdateRequest(cookie=COOKIE, states=()))
        assert response.updates == ()
