"""Unit tests for the fleet traffic simulator."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

pytest.importorskip("numpy")  # the corpus/fleet/analysis layers are numpy-backed

from repro.exceptions import ExperimentError
from repro.experiments.fleet import (
    FleetConfig,
    FleetReport,
    FleetSimulator,
    _throughput,
    run_fleet,
)
from repro.experiments.parallel import run_parallel_fleet
from repro.experiments.scale import SMALL, Scale
from repro.safebrowsing.lists import ListProvider

#: A deliberately tiny scale so unit tests stay fast.
TINY = Scale(
    name="tiny-fleet",
    corpus_hosts=40,
    blacklist_fraction=0.002,
    stats_sites=10,
    index_sites=10,
    tracked_targets=3,
    clients=2,
    fleet_urls_per_client=30,
    fleet_batch_size=10,
)


class TestFleetConfig:
    def test_defaults_are_valid(self):
        config = FleetConfig()
        assert config.mode == "batched"
        # numpy is importable in this suite (importorskip above), so the
        # fleet defaults to the vectorized store.
        assert config.store_backend == "numpy"
        assert config.profile == "uniform"

    def test_unknown_store_backend_rejected_at_config_time(self):
        with pytest.raises(ExperimentError, match="unknown store backend"):
            FleetConfig(store_backend="mmap")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ExperimentError):
            FleetConfig(mode="turbo")

    def test_unknown_transport_rejected(self):
        with pytest.raises(ExperimentError):
            FleetConfig(transport="tcp")

    def test_unknown_server_storage_rejected(self):
        with pytest.raises(ExperimentError):
            FleetConfig(server_storage="redis")

    def test_server_storage_defaults_to_memory(self):
        assert FleetConfig().server_storage == "memory"

    def test_network_parameters_validated(self):
        with pytest.raises(ExperimentError):
            FleetConfig(failure_rate=1.0)
        with pytest.raises(ExperimentError):
            FleetConfig(latency_seconds=-0.1)
        with pytest.raises(ExperimentError):
            FleetConfig(max_log_entries=0)

    def test_adversary_parameters_validated(self):
        with pytest.raises(ExperimentError):
            FleetConfig(tracked_target_count=0)

    def test_unknown_privacy_policy_rejected_with_known_names(self):
        with pytest.raises(ExperimentError) as excinfo:
            FleetConfig(privacy_policy="tor")
        message = str(excinfo.value)
        for name in ("none", "dummy", "one-prefix", "widen", "mix"):
            assert name in message

    def test_churn_parameters_validated(self):
        with pytest.raises(ExperimentError):
            FleetConfig(churn_fraction=1.5)
        with pytest.raises(ExperimentError):
            FleetConfig(churn_fraction=-0.1)
        with pytest.raises(ExperimentError):
            FleetConfig(restart_interval=-1)
        with pytest.raises(ExperimentError):
            # Churn without a restart cadence would silently never fire.
            FleetConfig(churn_fraction=0.5)

    def test_policy_parameters_validated(self):
        with pytest.raises(ExperimentError):
            FleetConfig(dummy_count=-1)
        with pytest.raises(ExperimentError):
            FleetConfig(widen_bits=12)
        with pytest.raises(ExperimentError):
            # At or above the clients' 32-bit width nothing is widened: a
            # policy labelled "widen" that sends full prefixes must not run.
            FleetConfig(widen_bits=32)
        with pytest.raises(ExperimentError):
            FleetConfig(mix_pool_size=-1)
        with pytest.raises(ExperimentError):
            FleetConfig(mix_delay_seconds=-0.5)


class TestStreams:
    def test_streams_are_deterministic(self):
        simulator = FleetSimulator(TINY)
        assert simulator.client_stream(0) == simulator.client_stream(0)

    def test_streams_differ_per_client(self):
        simulator = FleetSimulator(TINY)
        assert simulator.client_stream(0) != simulator.client_stream(1)

    def test_stream_length_follows_scale(self):
        simulator = FleetSimulator(TINY)
        assert len(simulator.client_stream(0)) == TINY.fleet_urls_per_client

    def test_blacklisted_urls_built_once(self):
        """Every client stream draws from one blacklisted-URL tuple."""
        simulator = FleetSimulator(TINY)
        urls = simulator._blacklisted_urls()
        assert urls
        simulator.client_stream(0)
        simulator.client_stream(1)
        assert simulator._blacklisted_urls() is urls

    def test_seed_changes_streams(self):
        base = FleetSimulator(TINY, FleetConfig(seed=1))
        other = FleetSimulator(TINY, FleetConfig(seed=2))
        assert base.client_stream(0) != other.client_stream(0)


class TestRun:
    @pytest.fixture(scope="class")
    def reports(self) -> tuple[FleetReport, FleetReport]:
        scalar = run_fleet(TINY, FleetConfig(mode="scalar"))
        batched = run_fleet(TINY, FleetConfig(mode="batched"))
        return scalar, batched

    def test_all_urls_checked(self, reports):
        scalar, batched = reports
        expected = TINY.clients * TINY.fleet_urls_per_client
        assert scalar.urls_checked == expected
        assert batched.urls_checked == expected

    def test_modes_reveal_identical_traffic(self, reports):
        scalar, batched = reports
        assert batched.traffic_signature() == scalar.traffic_signature()

    def test_batched_coalesces_requests(self, reports):
        scalar, batched = reports
        assert batched.server_full_hash_requests <= scalar.server_full_hash_requests

    def test_malicious_traffic_flows(self, reports):
        scalar, _ = reports
        assert scalar.malicious_verdicts > 0
        assert scalar.server_prefixes_received > 0

    def test_cache_hit_rate_bounded(self, reports):
        for report in reports:
            assert 0.0 <= report.cache_hit_rate <= 1.0

    def test_throughput_positive(self, reports):
        for report in reports:
            assert report.urls_per_second > 0

    def test_fleet_server_isolated_from_context_snapshot(self):
        simulator = FleetSimulator(TINY)
        snapshot_server = simulator._context.snapshot(ListProvider.GOOGLE).server
        before = snapshot_server.stats.full_hash_requests
        simulator.run()
        assert snapshot_server.stats.full_hash_requests == before


class TestPrivacyPolicyRuns:
    @pytest.fixture(scope="class")
    def policy_reports(self) -> dict[str, FleetReport]:
        return {
            policy: run_fleet(TINY, FleetConfig(adversary=True,
                                                privacy_policy=policy))
            for policy in ("none", "dummy", "one-prefix", "widen", "mix")
        }

    def test_no_policy_changes_fleet_verdicts(self, policy_reports):
        baseline = policy_reports["none"]
        for policy, report in policy_reports.items():
            assert report.malicious_verdicts == baseline.malicious_verdicts, policy
            assert report.local_hits == baseline.local_hits, policy
            assert report.urls_checked == baseline.urls_checked, policy

    def test_dummy_dilutes_single_prefix_but_not_tracking(self, policy_reports):
        dummy = policy_reports["dummy"]
        assert dummy.single_prefix_k_anonymity == pytest.approx(5.0)
        assert dummy.bandwidth_overhead_ratio == pytest.approx(4.0)
        assert dummy.tracking_recall == 1.0

    def test_splitting_policies_defeat_the_tracker(self, policy_reports):
        assert policy_reports["one-prefix"].tracking_recall == 0.0
        assert policy_reports["widen"].tracking_recall == 0.0
        assert policy_reports["one-prefix"].client_extra_round_trips > 0

    def test_mixing_pays_bandwidth_and_delay_without_defeating(self, policy_reports):
        mix = policy_reports["mix"]
        assert mix.tracking_recall == 1.0
        assert mix.client_dummy_prefixes_sent > 0
        assert mix.policy_delay_seconds > 0.0

    def test_report_carries_policy_accounting(self, policy_reports):
        for policy, report in policy_reports.items():
            assert report.privacy_policy == policy
            assert report.client_full_hash_requests > 0
            assert report.client_prefixes_sent >= report.client_dummy_prefixes_sent

    def test_bandwidth_ratios_are_zero_safe(self):
        # A fleet that sent nothing must report finite, JSON-safe ratios.
        report = FleetReport(
            mode="batched", scale="tiny", clients=0, urls_checked=0, rounds=0,
            elapsed_seconds=0.0, urls_per_second=0.0, server_update_requests=0,
            server_full_hash_requests=0, server_prefixes_received=0,
            local_hits=0, cache_hits=0, malicious_verdicts=0,
        )
        assert report.bandwidth_overhead_ratio == 0.0
        assert report.single_prefix_k_anonymity == 1.0


class TestReportMergeRules:
    RULES = {"match", "sum", "max", "union", "snapshots", "derived"}

    def test_every_field_declares_exactly_one_merge_rule(self):
        for spec in dataclasses.fields(FleetReport):
            assert spec.metadata.get("merge") in self.RULES, spec.name

    def test_every_field_declares_at_most_one_source(self):
        for spec in dataclasses.fields(FleetReport):
            sources = [name for name in ("config", "client", "server")
                       if spec.metadata.get(name)]
            assert len(sources) <= 1, spec.name
            if sources:
                # A copied value is either a counter (summed across shards)
                # or a configuration echo (which shards must agree on).
                assert spec.metadata["merge"] == (
                    "match" if sources == ["config"] else "sum"), spec.name

    def test_config_sources_name_real_config_fields(self):
        config_fields = {spec.name for spec in dataclasses.fields(FleetConfig)}
        for spec in dataclasses.fields(FleetReport):
            if spec.metadata.get("config"):
                assert spec.name in config_fields, spec.name

    def test_client_and_server_sources_name_real_stats_keys(self):
        from repro.safebrowsing.protocol import ClientStats
        from repro.safebrowsing.server import ServerStats

        client_keys = set(ClientStats.aggregate([ClientStats()]))
        server_keys = set(ServerStats().as_dict())
        for spec in dataclasses.fields(FleetReport):
            if spec.metadata.get("client"):
                assert spec.metadata["client"] in client_keys, spec.name
            if spec.metadata.get("server"):
                assert spec.metadata["server"] in server_keys, spec.name


class TestThroughputReporting:
    def test_degenerate_elapsed_reports_zero_not_infinity(self):
        """float('inf') would serialize as non-standard JSON ``Infinity``."""
        assert _throughput(1000, 0.0) == 0.0
        assert _throughput(0, 0.0) == 0.0
        assert _throughput(500, 2.0) == 250.0

    def test_bench_json_artifacts_reject_non_finite_values(self, tmp_path):
        """The record_json fixture must refuse inf/nan payloads outright."""
        import importlib.util
        from pathlib import Path

        conftest_path = (Path(__file__).resolve().parents[2]
                         / "benchmarks" / "conftest.py")
        spec = importlib.util.spec_from_file_location("bench_conftest",
                                                      conftest_path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        target = tmp_path / "BENCH_degenerate.json"
        with pytest.raises(ValueError):
            module.write_json_artifact(target, {"urls_per_second": float("inf")})
        assert not target.exists()
        module.write_json_artifact(target, {"urls_per_second": 0.0})
        assert target.read_text().strip().startswith("{")


class TestAdversary:
    @pytest.fixture(scope="class")
    def adversary_reports(self) -> dict[tuple[str, str], FleetReport]:
        """One adversary run per (mode, transport) over identical streams."""
        return {
            (mode, transport): run_fleet(
                TINY, FleetConfig(mode=mode, transport=transport,
                                  adversary=True))
            for mode in ("scalar", "batched")
            for transport in ("in-process", "simulated")
        }

    def test_detections_present_with_perfect_scores(self, adversary_reports):
        for report in adversary_reports.values():
            assert report.adversary
            assert report.tracked_targets == TINY.tracked_targets
            assert report.tracking_detections > 0
            assert report.tracking_true_pairs > 0
            assert report.tracking_precision == 1.0
            assert report.tracking_recall == 1.0

    def test_detected_pairs_mode_and_transport_independent(self, adversary_reports):
        """Coalescing repackages requests; the pairs it reveals are fixed.

        The digest pins the *sets*, not just the counts: different pair
        sets of equal size would produce different digests.
        """
        digests = {report.tracking_pair_digest
                   for report in adversary_reports.values()}
        true_counts = {report.tracking_true_pairs
                       for report in adversary_reports.values()}
        assert len(digests) == 1
        assert digests != {""}
        assert len(true_counts) == 1

    def test_adversary_run_is_deterministic(self, adversary_reports):
        first = adversary_reports[("batched", "in-process")]
        repeat = run_fleet(TINY, FleetConfig(adversary=True))
        assert repeat.tracking_detections == first.tracking_detections
        assert repeat.tracking_detected_pairs == first.tracking_detected_pairs
        assert repeat.traffic_signature() == first.traffic_signature()

    def test_planted_streams_only_differ_at_planted_positions(self):
        base = FleetSimulator(TINY, FleetConfig())
        adversarial = FleetSimulator(TINY, FleetConfig(adversary=True))
        targets = set(adversarial.tracked_targets())
        assert targets
        base_stream = base.client_stream(0)
        planted_stream = adversarial.client_stream(0)
        assert len(base_stream) == len(planted_stream)
        differing = [position for position, (left, right)
                     in enumerate(zip(base_stream, planted_stream))
                     if left != right]
        assert differing, "at least one visit is always planted"
        assert all(planted_stream[position] in targets for position in differing)

    def test_ground_truth_matches_planted_streams(self):
        simulator = FleetSimulator(TINY, FleetConfig(adversary=True))
        streams = [simulator.client_stream(index)
                   for index in range(TINY.clients)]
        truth = simulator.planted_ground_truth(streams)
        assert truth
        targets = set(simulator.tracked_targets())
        assert all(url in targets for _, url in truth)
        assert {index for index, _ in truth} <= set(range(TINY.clients))

    def test_tracked_target_count_override(self):
        simulator = FleetSimulator(TINY, FleetConfig(adversary=True,
                                                     tracked_target_count=7))
        assert len(simulator.tracked_targets()) == 7

    def test_disabled_adversary_reports_defaults(self):
        report = run_fleet(TINY, FleetConfig())
        assert not report.adversary
        assert report.tracked_targets == 0
        assert report.tracking_detections == 0
        assert report.tracking_true_pairs == 0
        assert report.tracking_precision == 1.0
        assert report.tracking_recall == 1.0

    def test_log_rotation_does_not_lose_detections(self):
        """The tentpole scenario: online detection over a rotating log."""
        bounded = run_fleet(TINY, FleetConfig(adversary=True, max_log_entries=2))
        unbounded = run_fleet(TINY, FleetConfig(adversary=True,
                                                max_log_entries=None))
        assert bounded.log_entries_evicted > 0
        assert bounded.tracking_detections == unbounded.tracking_detections
        assert bounded.tracking_detected_pairs == unbounded.tracking_detected_pairs
        assert bounded.tracking_precision == 1.0
        assert bounded.tracking_recall == 1.0


class TestTransports:
    def test_in_process_report_carries_layer_metadata(self):
        report = run_fleet(TINY, FleetConfig())
        assert report.transport == "in-process"
        assert report.transport_failures == 0

    def test_simulated_transport_completes_the_fleet(self):
        report = run_fleet(TINY, FleetConfig(transport="simulated",
                                             latency_seconds=0.01,
                                             latency_jitter_seconds=0.005))
        expected = TINY.clients * TINY.fleet_urls_per_client
        assert report.urls_checked == expected
        assert report.transport == "simulated"

    def test_injected_failures_are_survived_and_counted(self):
        report = run_fleet(TINY, FleetConfig(transport="simulated",
                                             latency_seconds=0.0,
                                             failure_rate=0.5))
        assert report.transport_failures > 0
        # The fleet survives the outages: the run completes, and only the
        # batches whose delivery failed are lost.
        assert 0 < report.urls_checked <= TINY.clients * TINY.fleet_urls_per_client

    @pytest.mark.network
    def test_failed_set_up_stops_the_co_hosted_service(self, monkeypatch):
        import threading

        from repro.exceptions import TransportError

        simulator = FleetSimulator(TINY, FleetConfig(transport="http"))
        threads_before = threading.active_count()

        def refuse(*args, **kwargs):
            raise TransportError("client construction failed")

        monkeypatch.setattr(simulator, "_build_client", refuse)
        with pytest.raises(TransportError):
            simulator.run()
        assert simulator._http_address is None
        assert threading.active_count() == threads_before

    def test_bounded_log_rotates_under_fleet_traffic(self):
        report = run_fleet(TINY, FleetConfig(max_log_entries=2))
        assert report.log_entries_evicted > 0

    def test_server_response_cache_sees_fleet_traffic(self):
        report = run_fleet(TINY, FleetConfig())
        assert report.server_cache_hits + report.server_cache_misses \
            == report.server_full_hash_requests
        assert 0.0 <= report.server_cache_hit_rate <= 1.0


class TestChurn:
    CHURN = dict(churn_fraction=0.5, restart_interval=2)

    @pytest.fixture(scope="class")
    def warm_and_cold(self) -> tuple[FleetReport, FleetReport]:
        warm = run_fleet(TINY, FleetConfig(**self.CHURN, warm_start=True))
        cold = run_fleet(TINY, FleetConfig(**self.CHURN, warm_start=False))
        return warm, cold

    def test_no_churn_by_default(self):
        report = run_fleet(TINY, FleetConfig())
        assert report.client_restarts == 0
        assert report.warm_start_prefixes_resumed == 0

    def test_restarts_happen_and_are_counted(self, warm_and_cold):
        warm, cold = warm_and_cold
        assert warm.client_restarts > 0
        assert warm.client_restarts == cold.client_restarts
        assert warm.churn_fraction == 0.5
        assert warm.restart_interval == 2

    def test_warm_restarts_resume_from_snapshots(self, warm_and_cold):
        warm, cold = warm_and_cold
        assert warm.warm_start and not cold.warm_start
        assert warm.warm_start_prefixes_resumed > 0
        assert cold.warm_start_prefixes_resumed == 0

    def test_warm_start_transfers_less_sync_bandwidth(self, warm_and_cold):
        warm, cold = warm_and_cold
        assert (warm.client_update_prefixes_received
                < cold.client_update_prefixes_received)
        assert (warm.warm_start_bandwidth_saved_fraction
                > cold.warm_start_bandwidth_saved_fraction)

    def test_restarts_do_not_lose_urls_or_verdict_totals(self, warm_and_cold):
        warm, cold = warm_and_cold
        expected = TINY.clients * TINY.fleet_urls_per_client
        assert warm.urls_checked == cold.urls_checked == expected
        # Retired clients' stats are folded into the totals, so restarting
        # can never *reduce* the counted traffic.
        assert warm.traffic_signature() == cold.traffic_signature()

    def test_churn_runs_are_deterministic(self):
        first = run_fleet(TINY, FleetConfig(**self.CHURN))
        second = run_fleet(TINY, FleetConfig(**self.CHURN))
        assert first.traffic_signature() == second.traffic_signature()
        assert (first.client_update_prefixes_received
                == second.client_update_prefixes_received)
        assert first.client_restarts == second.client_restarts

    def test_churning_clients_keep_their_cookies(self):
        """A restart must not mint a new identity: same name, same cookie."""
        simulator = FleetSimulator(TINY, FleetConfig(**self.CHURN))
        from repro.clock import ManualClock

        clock = ManualClock()
        server = simulator.build_server(clock)
        client = simulator._build_client(server, clock, 1)
        replacement = simulator._build_client(server, clock, 1)
        assert client.cookie == replacement.cookie
        assert client.name == replacement.name

    def test_adversary_recall_survives_churn(self):
        report = run_fleet(TINY, FleetConfig(**self.CHURN, adversary=True))
        assert report.client_restarts > 0
        assert report.tracking_recall == 1.0
        assert report.tracking_precision == 1.0

    def test_report_carries_update_request_totals(self, warm_and_cold):
        warm, _ = warm_and_cold
        assert warm.client_update_requests >= warm.server_update_requests > 0


def report_digest(report: FleetReport) -> str:
    """SHA-256 over every report field a run determines.

    Wall-clock fields (``elapsed_seconds``, ``urls_per_second``), the pool
    size (``workers``) and the metrics snapshot are left out; everything
    else — counters, pair sets, digests, configuration echoes — is pinned.
    """
    fields = dataclasses.asdict(report)
    for name in ("elapsed_seconds", "urls_per_second", "workers", "metrics"):
        del fields[name]
    return hashlib.sha256(
        json.dumps(fields, sort_keys=True).encode("utf-8")).hexdigest()


class TestGoldenReports:
    """Whole-report digests recorded before the fleet was restructured.

    Any change to what a fleet run counts, detects or echoes changes one of
    these digests; a refactor of the simulator must leave all of them as
    they are.
    """

    GOLDEN = {
        "default": (
            FleetConfig(),
            "d82e180c5745b1d723d5a95398cc2672ea31294df8871e2dbe71cfa433bc3e1c"),
        "adversary-dummy": (
            FleetConfig(adversary=True, privacy_policy="dummy"),
            "76028f9dd4bc05df8e5841fc9949286afd71c8f5c151867a7a6f4e86b82ee920"),
        "global-mix-churn": (
            FleetConfig(profile="global-mix", churn_fraction=0.5,
                        restart_interval=2),
            "792bcd10824f5ee210c69685eb37ca563f8e33752aab680db3bef1ee34a068b3"),
        "simulated-failures": (
            FleetConfig(transport="simulated", failure_rate=0.05),
            "2b06a83f9cbb2fe4a35bc25196fe008d9c492e6034d8edfc11c002e2bc42abc8"),
        # The scalar mode's digests were recorded before ``lookup`` became
        # a one-URL ``check_urls``: one path must reproduce the other.
        "scalar": (
            FleetConfig(mode="scalar"),
            "bb2e666537e3a57a62308666e256d8a0f9cbbcffaa9f820599165b880c4a1a3d"),
        "scalar-adversary-dummy": (
            FleetConfig(mode="scalar", adversary=True, privacy_policy="dummy"),
            "f94175f34dfb946cb5bc128bbce3fd9a58514a40fdfc72e6934b1a7c4b99a99f"),
    }

    PARALLEL_GOLDEN = {
        "default": (
            FleetConfig(),
            "b8c9074aeb60ad63c873979b9c4c4791783137aedfc04ad27508e52e94ceb569"),
        "adversary-churn": (
            FleetConfig(adversary=True, churn_fraction=0.5, restart_interval=2),
            "93e48762c3e21517ad29de79c2be72a5fef338c5a06301b95b43c097baf3b769"),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_monolithic_report_digest(self, name):
        config, expected = self.GOLDEN[name]
        assert report_digest(run_fleet(TINY, config)) == expected

    @pytest.mark.parametrize("name", sorted(PARALLEL_GOLDEN))
    def test_two_shard_report_digest(self, name):
        config, expected = self.PARALLEL_GOLDEN[name]
        report = run_parallel_fleet(TINY, config, workers=2, shards=2,
                                    inline=True)
        assert report.shards == 2
        assert report_digest(report) == expected

    def test_long_schedule_report_digest(self):
        """Thirty one-URL rounds: the round length reaches the activity
        schedule, and clients poll for updates more than once."""
        scale = dataclasses.replace(TINY, fleet_batch_size=1)
        report = run_fleet(scale, FleetConfig(profile="global-mix",
                                              churn_fraction=0.5,
                                              restart_interval=4))
        assert report.offline_client_rounds == 13
        assert report_digest(report) == (
            "ddfdfc44b24cacfac3ee8d7a40ddc5632577a5119558fe8d4751bfb707133730")

    def test_golden_profile_run_exercises_restart_counters(self):
        """The global-mix digest pins non-trivial offline/restart values."""
        config, _ = self.GOLDEN["global-mix-churn"]
        report = run_fleet(TINY, config)
        assert report.offline_client_rounds == 1
        assert report.reconnect_restarts == 1
        assert report.client_restarts == 2
        assert report.warm_start_prefixes_resumed == 1335


def metrics_digest(snapshot: dict) -> str:
    """SHA-256 over a metrics snapshot, each ``*_wall_seconds`` histogram
    reduced to its observation count (wall time is the machine's, the
    number of timed operations is the run's)."""
    families = {}
    for name, family in snapshot["families"].items():
        if name.endswith("_wall_seconds"):
            family = dict(family, children=[
                {"labels": child["labels"],
                 "state": sum(child["state"]["counts"])}
                for child in family["children"]])
        families[name] = family
    return hashlib.sha256(
        json.dumps(families, sort_keys=True).encode("utf-8")).hexdigest()


class TestGoldenMetrics:
    """Digests of ``FleetReport.metrics`` for SMALL batched fleets.

    Every family, label, help text and counter value a fleet's registry
    exports is pinned; a change to how the layers count must leave these
    as they are.
    """

    GOLDEN = {
        "default": (
            FleetConfig(mode="batched", collect_metrics=True),
            "3dd6b64a9890d6c0d1c2292513f7e015f95313480bf760db6d42ce3fe064d89d"),
        "simulated-failures": (
            FleetConfig(mode="batched", collect_metrics=True,
                        transport="simulated", failure_rate=0.05),
            "3574508c4cbb56ccc3e357136ed5bc9a39b1b6c3aff71277afe06056bf58bc4f"),
        "global-mix-churn": (
            FleetConfig(mode="batched", collect_metrics=True,
                        profile="global-mix", churn_fraction=0.5,
                        restart_interval=2),
            "ddcfb3e2e52afaadd791bcba6b99c702d5435bd6bb0970ca9f14dff2d781e043"),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_metrics_digest(self, name):
        config, expected = self.GOLDEN[name]
        assert metrics_digest(run_fleet(SMALL, config).metrics) == expected

    def test_golden_runs_exercise_failures_and_restarts(self):
        failures = run_fleet(SMALL, self.GOLDEN["simulated-failures"][0])
        (child,) = failures.metrics["families"][
            "transport_failures_total"]["children"]
        assert child["state"] > 0
        churn = run_fleet(SMALL, self.GOLDEN["global-mix-churn"][0])
        assert churn.client_restarts > 0
