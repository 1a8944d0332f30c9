"""Property tests: a restored database is observationally identical.

Two layers of the persistence contract are pinned here:

* **database equivalence** — saving and re-loading a
  :class:`ServerDatabase` or a client's local database reproduces the exact
  observable state (membership answers, single and batched; per-list
  versions; full-hash buckets; chunk history) for **every registered store
  backend** on the client side and for the server database;
* **fleet signatures** — a churning fleet's traffic signature (prefixes
  revealed, local hits, verdicts) does not depend on the execution mode or
  on whether restarts are warm or cold: persistence decides
  how much *update* bandwidth a restart costs, never what the lookups
  reveal.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import ManualClock
from repro.datastructures import STORE_FACTORIES
from repro.datastructures.vectorized import NUMPY_AVAILABLE
from repro.experiments.fleet import FleetConfig, run_fleet
from repro.experiments.scale import Scale
from repro.hashing.prefix import Prefix
from repro.safebrowsing.client import ClientConfig, SafeBrowsingClient
from repro.safebrowsing.lists import GOOGLE_LISTS
from repro.safebrowsing.server import SafeBrowsingServer
from repro.safebrowsing.snapshot import (
    load_server,
    load_server_database,
    restore_client_snapshot,
    save_client_snapshot,
    save_server_snapshot,
)

CLIENT_BACKENDS = sorted(STORE_FACTORIES)
#: Exact client backends answer membership byte-for-byte after a restore;
#: the Bloom backend is pinned separately (bit-array identity).
EXACT_CLIENT_BACKENDS = [name for name in CLIENT_BACKENDS if name != "bloom"]

EXPRESSIONS = (
    "evil.example.com/malware/dropper.exe",
    "evil.example.com/",
    "phishy.example.net/login.html",
    "bad.actor.org/payload/",
    "tracker.example.org/pixel.gif",
)

_values32 = st.integers(min_value=0, max_value=2**32 - 1)


def _build_server(extra_orphans: tuple[int, ...] = (), *,
                  with_subs: bool = True) -> SafeBrowsingServer:
    server = SafeBrowsingServer(GOOGLE_LISTS, clock=ManualClock())
    server.blacklist("goog-malware-shavar", EXPRESSIONS[:3])
    server.blacklist("googpub-phish-shavar", EXPRESSIONS[3:])
    if with_subs:
        # Creates a sub chunk; skipped for Bloom-backed stores, which cannot
        # delete (the documented reason Chromium abandoned the structure).
        server.unblacklist("goog-malware-shavar", [EXPRESSIONS[1]])
    server.insert_orphan_prefixes(
        "goog-malware-shavar",
        [Prefix.from_int(value, 32) for value in extra_orphans],
    )
    # Leave one mutation pending (uncommitted) so that state round-trips too.
    server.database["goog-malware-shavar"].add_expression("pending.example/x")
    return server


class TestServerDatabaseEquivalence:
    def test_restored_database_is_observationally_identical(self, tmp_path):
        server = _build_server(extra_orphans=(0xDEADBEEF, 0x00C0FFEE))
        path = save_server_snapshot(server, tmp_path / "server.sqlite")
        restored = load_server_database(path)
        assert restored.version == server.database.version

        probes = [Prefix.from_int(value, 32)
                  for value in (0, 1, 0xDEADBEEF, 0x00C0FFEE, 2**32 - 1)]
        for list_db in server.database:
            copy = restored[list_db.descriptor.name]
            assert copy.descriptor == list_db.descriptor
            assert copy.version == list_db.version
            assert copy.expressions() == list_db.expressions()
            assert copy.prefix_count() == list_db.prefix_count()
            assert sorted(copy.orphan_prefixes()) == sorted(list_db.orphan_prefixes())
            assert copy.add_chunks == list_db.add_chunks
            assert copy.sub_chunks == list_db.sub_chunks
            members = sorted(list_db.prefixes())
            for prefix in members:
                assert copy.contains_prefix(prefix) == list_db.contains_prefix(prefix)
                assert copy.full_hashes_for(prefix) == list_db.full_hashes_for(prefix)
            batch = members + probes
            assert copy.contains_many(batch) == list_db.contains_many(batch)

    def test_restored_server_answers_full_hash_requests_identically(
            self, tmp_path):
        server = _build_server()
        path = save_server_snapshot(server, tmp_path / "server.sqlite")
        restored = load_server(path, clock=ManualClock())
        client_a = SafeBrowsingClient(server, name="orig")
        client_b = SafeBrowsingClient(restored, name="copy")
        client_a.update()
        client_b.update()
        for expression in EXPRESSIONS + ("pending.example/x", "fine.example/"):
            url = f"http://{expression}"
            result_a = client_a.lookup(url)
            result_b = client_b.lookup(url)
            assert result_a.verdict == result_b.verdict, expression
            assert result_a.sent_prefixes == result_b.sent_prefixes, expression


class TestClientDatabaseEquivalence:
    @pytest.mark.parametrize("backend", CLIENT_BACKENDS)
    def test_round_trip_preserves_membership_and_verdicts(self, backend,
                                                          tmp_path):
        clock = ManualClock()
        server = _build_server(with_subs=backend != "bloom")
        config = ClientConfig(store_backend=backend)
        original = SafeBrowsingClient(server, name="orig", clock=clock,
                                      config=config)
        original.update()
        path = save_client_snapshot(original, tmp_path / f"{backend}.snap")
        restored = SafeBrowsingClient(server, name="copy", clock=clock,
                                      config=config)
        assert restore_client_snapshot(restored, path) == original.local_database_size()
        assert restored.update() == 0  # nothing newer to fetch
        assert restored.local_database_size() == original.local_database_size()
        for expression in EXPRESSIONS + ("fine.example/",):
            url = f"http://{expression}"
            assert (restored.lookup(url).verdict
                    == original.lookup(url).verdict), expression

    @given(members=st.lists(_values32, max_size=150, unique=True),
           probes=st.lists(_values32, max_size=40),
           backend=st.sampled_from(EXACT_CLIENT_BACKENDS))
    @settings(max_examples=60, deadline=None)
    def test_store_section_round_trip_is_exact(self, members, probes, backend,
                                               tmp_path_factory):
        """Randomized store contents survive the packed run byte-exactly."""
        from repro.safebrowsing.snapshot import _build_store, _store_columns

        store = STORE_FACTORIES[backend](
            [Prefix.from_int(value, 32) for value in members], 32)
        columns = _store_columns(store)
        assert columns[:3] == (None, None, None)  # exact: no Bloom geometry
        restored = _build_store(backend, 32, *columns)
        assert len(restored) == len(store)
        probe_prefixes = [Prefix.from_int(value, 32)
                          for value in probes + members[:10]]
        assert (restored.contains_many(probe_prefixes)
                == store.contains_many(probe_prefixes))


#: Deliberately tiny so the churn matrix stays inside the tier-1 budget.
TINY_CHURN = Scale(
    name="tiny-churn",
    corpus_hosts=40,
    blacklist_fraction=0.002,
    stats_sites=10,
    index_sites=10,
    tracked_targets=3,
    clients=3,
    fleet_urls_per_client=60,
    fleet_batch_size=10,
)

_CHURN = dict(churn_fraction=0.5, restart_interval=2)


@pytest.mark.skipif(not NUMPY_AVAILABLE,
                    reason="the fleet simulation is numpy-backed")
class TestChurningFleetSignatures:
    def test_signature_is_mode_invariant_under_churn(self):
        scalar = run_fleet(TINY_CHURN, FleetConfig(**_CHURN, mode="scalar"))
        batched = run_fleet(TINY_CHURN, FleetConfig(**_CHURN, mode="batched"))
        assert scalar.traffic_signature() == batched.traffic_signature()

    def test_warm_and_cold_restarts_reveal_identical_lookup_traffic(self):
        """Persistence changes sync bandwidth, never what lookups reveal."""
        warm = run_fleet(TINY_CHURN, FleetConfig(**_CHURN, warm_start=True))
        cold = run_fleet(TINY_CHURN, FleetConfig(**_CHURN, warm_start=False))
        assert warm.traffic_signature() == cold.traffic_signature()
        assert warm.client_restarts == cold.client_restarts
        # ... but the warm fleet syncs strictly less update bandwidth.
        assert (warm.client_update_prefixes_received
                < cold.client_update_prefixes_received)
        assert warm.warm_start_prefixes_resumed > 0
        assert cold.warm_start_prefixes_resumed == 0

    @pytest.mark.parametrize("backend", [name for name in EXACT_CLIENT_BACKENDS
                                         if name != "raw"])
    def test_exact_backends_agree_under_churn(self, backend):
        report = run_fleet(TINY_CHURN, FleetConfig(**_CHURN,
                                                   store_backend=backend))
        reference = run_fleet(TINY_CHURN, FleetConfig(**_CHURN,
                                                      store_backend="raw"))
        assert report.traffic_signature() == reference.traffic_signature()
