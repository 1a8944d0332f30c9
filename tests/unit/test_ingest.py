"""Unit tests for the live ingestion pipeline (safebrowsing.ingest)."""

from __future__ import annotations

import pytest

from repro.exceptions import StorageError
from repro.observability.metrics import MetricsRegistry
from repro.hashing.digests import FullHash
from repro.hashing.prefix import Prefix
from repro.safebrowsing.database import ServerDatabase
from repro.safebrowsing.ingest import (
    DEFAULT_BATCH_SIZE,
    MUTATION_ACTIONS,
    IngestionPipeline,
    IngestStats,
    ListMutation,
    synthetic_additions,
)
from repro.safebrowsing.lists import GOOGLE_LISTS
from repro.safebrowsing.server import SafeBrowsingServer

LIST = "goog-malware-shavar"


class TestListMutation:
    def test_valid_actions(self):
        assert ListMutation(LIST, "add-expression",
                            expression="x.example/").action == "add-expression"
        assert ListMutation(LIST, "add-full-hash",
                            full_hash=FullHash.of("x.example/")).full_hash
        assert ListMutation(LIST, "add-orphan",
                            prefix=Prefix.from_int(7, 32)).prefix

    def test_unknown_action_rejected(self):
        with pytest.raises(StorageError, match="unknown ingestion action"):
            ListMutation(LIST, "drop-table")

    @pytest.mark.parametrize("action", MUTATION_ACTIONS)
    def test_missing_operand_rejected(self, action):
        with pytest.raises(StorageError, match="operand"):
            ListMutation(LIST, action)


class TestPipeline:
    def _pipeline(self, batch_size=10, storage="memory"):
        database = ServerDatabase(GOOGLE_LISTS, storage=storage)
        return IngestionPipeline(database, batch_size=batch_size)

    def test_accepts_a_server_or_a_database(self):
        server = SafeBrowsingServer(GOOGLE_LISTS)
        assert IngestionPipeline(server).database is server.database
        database = ServerDatabase(GOOGLE_LISTS)
        assert IngestionPipeline(database).database is database

    def test_default_batch_size(self):
        assert IngestionPipeline(ServerDatabase(GOOGLE_LISTS)).batch_size \
            == DEFAULT_BATCH_SIZE

    def test_rejects_non_positive_batch_size(self):
        with pytest.raises(StorageError, match="positive"):
            IngestionPipeline(ServerDatabase(GOOGLE_LISTS), batch_size=0)

    def test_step_applies_at_most_one_batch(self):
        pipeline = self._pipeline(batch_size=10)
        assert pipeline.submit(synthetic_additions(LIST, 25)) == 25
        progress = pipeline.step()
        assert progress.applied == 10
        assert progress.queued == 15
        assert progress.batches == 1
        assert progress.version == progress.committed_version

    def test_drain_empties_the_queue_in_batches(self):
        pipeline = self._pipeline(batch_size=10)
        pipeline.submit(synthetic_additions(LIST, 25))
        progress = pipeline.drain()
        assert progress.applied == 25
        assert progress.queued == 0
        assert pipeline.batches == 3
        assert pipeline.database[LIST].prefix_count() == 25

    def test_each_batch_commits_atomically(self):
        pipeline = self._pipeline(batch_size=5, storage="sqlite")
        pipeline.submit(synthetic_additions(LIST, 12))
        while pipeline.queued:
            progress = pipeline.step()
            assert progress.committed_version == progress.version
            assert pipeline.database.storage.pending_ops() == 0
            assert progress.flushed_ops > 0

    def test_empty_step_is_a_cheap_no_op(self):
        pipeline = self._pipeline()
        progress = pipeline.step()
        assert progress.applied == 0
        assert progress.batches == 0
        assert progress.flushed_ops == 0

    def test_every_mutation_action_dispatches(self):
        pipeline = self._pipeline(batch_size=100)
        prefix = Prefix.from_int(0xAB, 32)
        pipeline.submit([
            ListMutation(LIST, "add-expression", expression="a.example/"),
            ListMutation(LIST, "add-expression", expression="b.example/"),
            ListMutation(LIST, "add-full-hash",
                         full_hash=FullHash.of("c.example/")),
            ListMutation(LIST, "add-orphan", prefix=prefix),
            ListMutation(LIST, "remove-orphan", prefix=prefix),
            ListMutation(LIST, "remove-expression", expression="b.example/"),
        ])
        pipeline.drain()
        list_db = pipeline.database[LIST]
        assert "a.example/" in list_db.expressions()
        assert "b.example/" not in list_db.expressions()
        assert prefix not in list_db.orphan_prefixes()
        assert list_db.prefix_count() == 2  # a.example/ + the full hash


class TestPipelineMetrics:
    def test_stats_are_the_one_count_of_steps(self):
        registry = MetricsRegistry()
        pipeline = IngestionPipeline(ServerDatabase(GOOGLE_LISTS),
                                     batch_size=10, metrics=registry)
        pipeline.submit(synthetic_additions(LIST, 25))
        pipeline.drain()
        pipeline.step()  # empty: counts no batch
        assert (pipeline.applied, pipeline.batches) == (25, 3)
        assert pipeline.stats == IngestStats(applied=25, batches=3)
        families = registry.snapshot()["families"]
        for family, value in (("ingest_mutations_total", 25),
                              ("ingest_batches_total", 3)):
            assert families[family]["kind"] == "counter"
            [child] = families[family]["children"]
            assert child["state"] == value
        # Only the batch shape and the queue stay live instruments.
        assert {family.name for family in registry.families()} >= {
            "ingest_batch_size", "ingest_queue_depth"}
        assert not {family.name for family in registry.families()} & {
            "ingest_mutations_total", "ingest_batches_total"}


class TestSyntheticAdditions:
    def test_deterministic_and_collision_free(self):
        first = synthetic_additions(LIST, 50, seed=3)
        again = synthetic_additions(LIST, 50, seed=3)
        assert first == again
        other_seed = synthetic_additions(LIST, 50, seed=4)
        assert first != other_seed
        expressions = {m.expression for m in first}
        assert len(expressions) == 50

    def test_start_continues_the_stream(self):
        whole = synthetic_additions(LIST, 20, seed=1)
        head = synthetic_additions(LIST, 12, seed=1)
        tail = synthetic_additions(LIST, 8, seed=1, start=12)
        assert head + tail == whole

    def test_negative_count_rejected(self):
        with pytest.raises(StorageError, match="non-negative"):
            synthetic_additions(LIST, -1)


class TestRunIngestion:
    def test_memory_and_sqlite_agree(self, tmp_path):
        from repro.experiments.ingestion import run_ingestion

        kwargs = dict(initial=120, live=80, batch_size=40, clients=2)
        memory = run_ingestion(storage="memory", **kwargs)
        sqlite = run_ingestion(storage="sqlite",
                               storage_path=tmp_path / "i.sqlite", **kwargs)
        assert memory.converged and sqlite.converged
        assert memory.server_prefixes == sqlite.server_prefixes == 200
        assert memory.lookups == sqlite.lookups
        assert memory.malicious_verdicts == sqlite.malicious_verdicts
        assert memory.ingested_hits == sqlite.ingested_hits > 0
        assert memory.flushed_ops == 0
        assert sqlite.flushed_ops > 0

    def test_unknown_storage_rejected(self):
        from repro.exceptions import ExperimentError
        from repro.experiments.ingestion import run_ingestion

        with pytest.raises(ExperimentError, match="storage"):
            run_ingestion(storage="redis")

    @pytest.mark.parametrize("transport", ["http", "tcp"])
    def test_non_local_transport_rejected_before_bootstrap(self, transport):
        from unittest import mock

        from repro.exceptions import ExperimentError
        from repro.experiments import ingestion

        # "http" is a registered transport kind, but ingestion's server has
        # no network address: it must fail up front, not after the
        # bootstrap load reaches build_transport.
        with mock.patch.object(ingestion, "SafeBrowsingServer") as server:
            with pytest.raises(ExperimentError, match="in-process"):
                ingestion.run_ingestion(transport=transport)
        server.assert_not_called()

    def test_leaves_a_loadable_database_behind(self, tmp_path):
        from repro.experiments.ingestion import run_ingestion
        from repro.safebrowsing.storage import load_sqlite_server_database

        path = tmp_path / "i.sqlite"
        report = run_ingestion(storage="sqlite", storage_path=path,
                               initial=60, live=40, batch_size=20, clients=1)
        restored = load_sqlite_server_database(path)
        assert restored.version == report.final_committed_version
        assert restored[LIST].prefix_count() == report.server_prefixes
