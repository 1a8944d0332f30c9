"""Property tests: the storage backend is observationally invisible.

The durable-server contract, pinned two ways:

* **database equivalence** — a server built over SQLite storage answers
  exactly like its memory-backed twin (membership, single and batched;
  buckets; chunk history; versions); and a database *reloaded* from its
  SQLite file matches the database that wrote it.  This mirrors
  ``test_prop_snapshot.py``, which pins the same property for snapshot
  save/load;
* **mutation round trip** — after any mix of the five ``ListDatabase``
  mutators (the operation strategy of ``test_prop_database_membership.py``
  plus full hashes of known expressions), with commits interleaved and an
  uncommitted tail, the database reloaded from SQLite equals both its
  writer and the memory-backed twin that saw the same sequence;
* **fleet signatures** — a fleet's traffic signature (prefixes revealed,
  local hits, verdicts) does not depend on the server's storage backend, on
  either transport, with or without churn: durability decides what a
  restart or a worker handoff *costs*, never what the protocol reveals.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.clock import ManualClock
from repro.datastructures.vectorized import NUMPY_AVAILABLE
from repro.experiments.fleet import FleetConfig, run_fleet
from repro.hashing.digests import FullHash
from repro.hashing.prefix import Prefix
from repro.safebrowsing.client import SafeBrowsingClient
from repro.safebrowsing.database import ServerDatabase
from repro.safebrowsing.lists import GOOGLE_LISTS
from repro.safebrowsing.server import SafeBrowsingServer
from repro.safebrowsing.storage import load_sqlite_server_database

from tests.property.test_prop_database_membership import (
    EXPRESSIONS as MUTATED_EXPRESSIONS,
    POOL,
    _apply,
    _Model,
    _operation,
)
from tests.property.test_prop_snapshot import TINY_CHURN, _CHURN

TRANSPORTS = ("in-process", "simulated")

EXPRESSIONS = (
    "evil.example.com/malware/dropper.exe",
    "evil.example.com/",
    "phishy.example.net/login.html",
    "bad.actor.org/payload/",
    "tracker.example.org/pixel.gif",
)


def _build_server(*, storage: str = "memory",
                  storage_path=None) -> SafeBrowsingServer:
    server = SafeBrowsingServer(GOOGLE_LISTS, clock=ManualClock(),
                                storage=storage, storage_path=storage_path)
    server.blacklist("goog-malware-shavar", EXPRESSIONS[:3])
    server.blacklist("googpub-phish-shavar", EXPRESSIONS[3:])
    server.unblacklist("goog-malware-shavar", [EXPRESSIONS[1]])
    server.insert_orphan_prefixes(
        "goog-malware-shavar",
        [Prefix.from_int(value, 32) for value in (0xDEADBEEF, 0x00C0FFEE)],
    )
    # Leave one mutation pending (uncommitted) so that state round-trips too.
    server.database["goog-malware-shavar"].add_expression("pending.example/x")
    return server


def _assert_databases_identical(reference, candidate) -> None:
    assert candidate.version == reference.version
    probes = [Prefix.from_int(value, 32)
              for value in (0, 1, 0xDEADBEEF, 0x00C0FFEE, 2**32 - 1)]
    for list_db in reference:
        copy = candidate[list_db.descriptor.name]
        assert copy.descriptor == list_db.descriptor
        assert copy.version == list_db.version
        assert copy.expressions() == list_db.expressions()
        assert copy.prefix_count() == list_db.prefix_count()
        assert sorted(copy.orphan_prefixes()) == sorted(
            list_db.orphan_prefixes())
        assert copy.add_chunks == list_db.add_chunks
        assert copy.sub_chunks == list_db.sub_chunks
        members = sorted(list_db.prefixes())
        for prefix in members:
            assert copy.contains_prefix(prefix) == list_db.contains_prefix(prefix)
            assert copy.full_hashes_for(prefix) == list_db.full_hashes_for(prefix)
        batch = members + probes
        assert copy.contains_many(batch) == list_db.contains_many(batch)


#: The first and the last stored list: the round trip keeps two lists'
#: entries apart in one file.
ROUND_TRIP_LISTS = (GOOGLE_LISTS[0].name, GOOGLE_LISTS[-1].name)

_E0, _E1, _E2 = MUTATED_EXPRESSIONS[:3]
_L0, _L1 = ROUND_TRIP_LISTS
_COMMIT = (_L0, ("commit",))

#: One step on one list: a mutation, a bare full hash of a known expression
#: (so expressions and bare digests share entries), or a commit of every
#: list.
_step = st.tuples(st.sampled_from(ROUND_TRIP_LISTS), st.one_of(
    _operation,
    st.tuples(st.just("add_full_hash_of"),
              st.sampled_from(MUTATED_EXPRESSIONS)),
    st.just(("commit",)),
))


def _mutate(database: ServerDatabase, step: tuple) -> None:
    list_name, operation = step
    if operation[0] == "commit":
        database.commit()
    elif operation[0] == "add_full_hash_of":
        database[list_name].add_full_hash(FullHash.of(operation[1]))
    else:
        _apply(database[list_name], _Model(), operation)


def _assert_round_trip(reference: ServerDatabase,
                       candidate: ServerDatabase) -> None:
    assert candidate.version == reference.version
    for list_db in reference:
        copy = candidate[list_db.descriptor.name]
        assert copy.version == list_db.version
        assert copy.expressions() == list_db.expressions()
        members = sorted(list_db.prefixes())
        assert sorted(copy.prefixes()) == members
        for prefix in (*members, *POOL):
            assert copy.full_hashes_for(prefix) == list_db.full_hashes_for(
                prefix)
        assert sorted(copy.orphan_prefixes()) == sorted(
            list_db.orphan_prefixes())
        assert copy.add_chunks == list_db.add_chunks
        assert copy.sub_chunks == list_db.sub_chunks
        assert copy._pending_additions == list_db._pending_additions
        assert copy._pending_removals == list_db._pending_removals


class TestMutationSequencesRoundTrip:
    @given(st.lists(_step, max_size=40))
    # A bare digest lands before its expression, which stays.
    @example([(_L0, ("add_full_hash_of", _E0)), _COMMIT,
              (_L0, ("add_expression", _E0))])
    # A bare digest lands before its expression, which is then removed.
    @example([(_L0, ("add_full_hash_of", _E0)), (_L0, ("add_expression", _E0)),
              _COMMIT, (_L0, ("remove_expression", _E0))])
    # A bare digest lands after its expression; another expression whose
    # digest was only ever added bare is removed in the pending tail.
    @example([(_L0, ("add_expression", _E1)), (_L0, ("add_full_hash_of", _E1)),
              (_L1, ("add_full_hash_of", _E2)), _COMMIT,
              (_L1, ("remove_expression", _E2)),
              (_L1, ("add_expression", _E1))])
    @settings(max_examples=100, deadline=None)
    def test_reload_matches_writer_and_memory_twin(self, steps):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "server.sqlite"
            writer = ServerDatabase(GOOGLE_LISTS, storage="sqlite",
                                    storage_path=path)
            twin = ServerDatabase(GOOGLE_LISTS)
            try:
                for step in steps:
                    _mutate(writer, step)
                    _mutate(twin, step)
                # Flush without committing: the pending tail is saved as is.
                writer.storage.flush()
            finally:
                writer.storage.close()
            restored = load_sqlite_server_database(path)
        _assert_round_trip(writer, restored)
        _assert_round_trip(twin, restored)


class TestStorageBackendEquivalence:
    def test_sqlite_backed_server_matches_memory_twin(self):
        """Same mutations through both storages: identical observables."""
        memory = _build_server()
        sqlite = _build_server(storage="sqlite")
        _assert_databases_identical(memory.database, sqlite.database)
        sqlite.database.storage.close()

    def test_reloaded_database_matches_the_writer(self, tmp_path):
        server = _build_server(storage="sqlite",
                               storage_path=tmp_path / "server.sqlite")
        server.database.commit()
        server.database.storage.close()
        restored = load_sqlite_server_database(tmp_path / "server.sqlite")
        _assert_databases_identical(server.database, restored)

    def test_replica_serves_full_hash_requests_identically(self, tmp_path):
        """A worker's read-only replica is protocol-indistinguishable."""
        server = _build_server(storage="sqlite",
                               storage_path=tmp_path / "server.sqlite")
        server.database.commit()
        replica_db = load_sqlite_server_database(tmp_path / "server.sqlite")
        replica = SafeBrowsingServer(
            [list_db.descriptor for list_db in replica_db],
            clock=ManualClock())
        replica.database = replica_db
        client_a = SafeBrowsingClient(server, name="orig")
        client_b = SafeBrowsingClient(replica, name="copy")
        client_a.update()
        client_b.update()
        for expression in EXPRESSIONS + ("pending.example/x", "fine.example/"):
            url = f"http://{expression}"
            result_a = client_a.lookup(url)
            result_b = client_b.lookup(url)
            assert result_a.verdict == result_b.verdict, expression
            assert result_a.sent_prefixes == result_b.sent_prefixes, expression
        server.database.storage.close()


@pytest.mark.skipif(not NUMPY_AVAILABLE,
                    reason="the fleet simulation is numpy-backed")
class TestFleetSignaturesAcrossStorage:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_signature_is_storage_invariant_on_every_transport(
            self, transport):
        reports = [
            run_fleet(TINY_CHURN, FleetConfig(transport=transport,
                                              server_storage=storage))
            for storage in ("memory", "sqlite")
        ]
        assert reports[0].traffic_signature() == reports[1].traffic_signature()
        assert reports[0].urls_checked == reports[1].urls_checked > 0

    def test_signature_is_storage_invariant_under_churn(self):
        memory = run_fleet(TINY_CHURN, FleetConfig(**_CHURN,
                                                   server_storage="memory"))
        sqlite = run_fleet(TINY_CHURN, FleetConfig(**_CHURN,
                                                   server_storage="sqlite"))
        assert memory.traffic_signature() == sqlite.traffic_signature()
        assert memory.client_restarts == sqlite.client_restarts > 0

    def test_parallel_sqlite_handoff_matches_monolithic(self):
        """Workers attaching the SQLite file read-only reproduce the
        monolithic run's signature exactly (the snapshot-restore retirement
        criterion)."""
        from repro.experiments.parallel import run_parallel_fleet

        config = FleetConfig(mode="batched", server_cache_seconds=0,
                             server_storage="sqlite")
        monolithic = run_fleet(TINY_CHURN, config)
        parallel = run_parallel_fleet(TINY_CHURN, config, workers=2,
                                      inline=True)
        assert monolithic.traffic_signature() == parallel.traffic_signature()
        assert monolithic.urls_checked == parallel.urls_checked
