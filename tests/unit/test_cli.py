"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import _EXPERIMENTS, build_parser, main
from repro.datastructures.vectorized import NUMPY_AVAILABLE

# The snapshot CLI provisions a corpus-backed server and the table5
# experiment draws a random population; both need numpy.
needs_numpy = pytest.mark.skipif(
    not NUMPY_AVAILABLE, reason="this command is numpy-backed")


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_names_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "not-a-table"])

    def test_every_registered_experiment_resolves(self):
        from repro.cli import _resolve_experiment

        for name in _EXPERIMENTS:
            assert callable(_resolve_experiment(name))

    def test_fleet_rejects_unknown_backend_with_registered_names(self, capsys):
        from repro.datastructures import STORE_FACTORIES

        assert main(["fleet", "--store-backend", "nope"]) == 2
        message = capsys.readouterr().err
        assert message.startswith("error: ")
        assert "'nope'" in message
        # The store registry names every backend it has, so the user can
        # correct the flag without reading the source.
        for name in STORE_FACTORIES:
            assert name in message

    def test_fleet_rejects_unknown_transport_with_registered_kinds(self, capsys):
        from repro.safebrowsing.transport import TRANSPORT_KINDS

        assert main(["fleet", "--transport", "tcp"]) == 2
        message = capsys.readouterr().err
        assert message.startswith("error: ")
        for kind in TRANSPORT_KINDS:
            assert kind in message

    def test_fleet_adversary_flags_parse(self):
        args = build_parser().parse_args(
            ["fleet", "--adversary", "--tracked-targets", "7"])
        assert args.adversary is True
        assert args.tracked_targets == 7

    def test_fleet_adversary_defaults_off(self):
        args = build_parser().parse_args(["fleet"])
        assert args.adversary is False
        assert args.tracked_targets is None

    def test_fleet_tracked_targets_implies_adversary(self, capsys):
        from unittest import mock

        from repro.experiments import fleet as fleet_module

        captured = {}

        def fake_run_fleet(scale, config):
            captured["config"] = config
            raise SystemExit(0)  # skip the actual simulation

        with mock.patch.object(fleet_module, "run_fleet", fake_run_fleet):
            with pytest.raises(SystemExit):
                main(["fleet", "--mode", "batched", "--tracked-targets", "3"])
        assert captured["config"].adversary is True
        assert captured["config"].tracked_target_count == 3

    def test_fleet_adversary_experiment_registered(self):
        assert "fleet-adversary" in _EXPERIMENTS

    def test_fleet_rejects_unknown_policy_with_registered_names(self, capsys):
        from repro.safebrowsing.privacy import POLICY_FACTORIES

        assert main(["fleet", "--privacy-policy", "tor"]) == 2
        message = capsys.readouterr().err
        # The policy registry's rejection must name every registered
        # policy, so the user can correct the flag without reading the
        # source.
        assert message.startswith("error: ")
        for name in POLICY_FACTORIES:
            assert name in message

    def test_fleet_policy_flags_parse(self):
        args = build_parser().parse_args(
            ["fleet", "--privacy-policy", "dummy", "--dummy-count", "7",
             "--widen-bits", "24", "--mix-pool", "3", "--mix-delay", "0.5"])
        assert args.privacy_policy == "dummy"
        assert args.dummy_count == 7
        assert args.widen_bits == 24
        assert args.mix_pool == 3
        assert args.mix_delay == 0.5

    def test_fleet_policy_defaults_off(self):
        args = build_parser().parse_args(["fleet"])
        assert args.privacy_policy == "none"
        assert args.dummy_count is None
        assert args.widen_bits is None
        assert args.mix_pool is None
        assert args.mix_delay is None

    def test_fleet_policy_flags_reach_the_config(self):
        from unittest import mock

        from repro.experiments import fleet as fleet_module

        captured = {}

        def fake_run_fleet(scale, config):
            captured["config"] = config
            raise SystemExit(0)  # skip the actual simulation

        with mock.patch.object(fleet_module, "run_fleet", fake_run_fleet):
            with pytest.raises(SystemExit):
                main(["fleet", "--mode", "batched", "--privacy-policy", "mix",
                      "--mix-pool", "5", "--mix-delay", "0.1"])
        config = captured["config"]
        assert config.privacy_policy == "mix"
        assert config.mix_pool_size == 5
        assert config.mix_delay_seconds == 0.1

    def test_armsrace_experiment_registered(self):
        assert "armsrace" in _EXPERIMENTS

    def test_fleet_churn_flags_parse(self):
        args = build_parser().parse_args(
            ["fleet", "--churn", "0.25", "--restart-interval", "3",
             "--cold-restart"])
        assert args.churn == 0.25
        assert args.restart_interval == 3
        assert args.cold_restart is True

    def test_fleet_churn_defaults_off(self):
        args = build_parser().parse_args(["fleet"])
        assert args.churn is None
        assert args.restart_interval is None
        assert args.cold_restart is False

    def test_fleet_churn_flags_reach_the_config(self):
        from unittest import mock

        from repro.experiments import fleet as fleet_module

        captured = {}

        def fake_run_fleet(scale, config):
            captured["config"] = config
            raise SystemExit(0)

        with mock.patch.object(fleet_module, "run_fleet", fake_run_fleet):
            with pytest.raises(SystemExit):
                main(["fleet", "--mode", "batched", "--churn", "0.5",
                      "--restart-interval", "2", "--cold-restart"])
        config = captured["config"]
        assert config.churn_fraction == 0.5
        assert config.restart_interval == 2
        assert config.warm_start is False

    def test_fleet_churn_implies_restart_every_round(self):
        from unittest import mock

        from repro.experiments import fleet as fleet_module

        captured = {}

        def fake_run_fleet(scale, config):
            captured["config"] = config
            raise SystemExit(0)

        with mock.patch.object(fleet_module, "run_fleet", fake_run_fleet):
            with pytest.raises(SystemExit):
                main(["fleet", "--mode", "batched", "--churn", "0.5"])
        assert captured["config"].restart_interval == 1
        assert captured["config"].warm_start is True

    def test_restart_flags_require_churn(self, capsys):
        assert main(["fleet", "--mode", "batched",
                     "--restart-interval", "2"]) == 2
        assert "--churn" in capsys.readouterr().err

    def test_fleet_rejects_unknown_profile_with_registered_names(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--profile", "metaverse"])
        message = capsys.readouterr().err
        # argparse's rejection must name every registered profile, so the
        # user can correct the flag without reading the source.
        for name in ("uniform", "desktop", "mobile", "regional", "global-mix"):
            assert name in message

    def test_fleet_scale_choices_include_parallel_tiers(self):
        from repro.cli import _FLEET_SCALES

        assert _FLEET_SCALES == ("small", "medium", "large", "xlarge")
        args = build_parser().parse_args(["fleet", "--scale", "xlarge"])
        assert args.scale == "xlarge"

    def test_fleet_workers_and_profile_defaults_off(self):
        args = build_parser().parse_args(["fleet"])
        assert args.workers is None
        assert args.profile is None

    def test_fleet_workers_flag_reaches_the_parallel_engine(self):
        from unittest import mock

        from repro.experiments import parallel as parallel_module

        captured = {}

        def fake_run_parallel_fleet(scale, config, *, workers):
            captured["scale"] = scale
            captured["config"] = config
            captured["workers"] = workers
            raise SystemExit(0)  # skip the actual simulation

        with mock.patch.object(parallel_module, "run_parallel_fleet",
                               fake_run_parallel_fleet):
            with pytest.raises(SystemExit):
                main(["fleet", "--mode", "batched", "--workers", "3",
                      "--profile", "global-mix"])
        assert captured["workers"] == 3
        assert captured["config"].profile == "global-mix"
        assert captured["config"].mode == "batched"

    def test_fleet_workers_requires_a_single_mode(self, capsys):
        assert main(["fleet", "--mode", "both", "--workers", "2"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_fleet_profile_reaches_the_single_process_config(self):
        from unittest import mock

        from repro.experiments import fleet as fleet_module

        captured = {}

        def fake_run_fleet(scale, config):
            captured["config"] = config
            raise SystemExit(0)

        with mock.patch.object(fleet_module, "run_fleet", fake_run_fleet):
            with pytest.raises(SystemExit):
                main(["fleet", "--mode", "batched", "--profile", "mobile"])
        assert captured["config"].profile == "mobile"

    def test_fleet_parallel_experiment_registered(self):
        assert "fleet-parallel" in _EXPERIMENTS

    def test_fleet_rejects_unknown_server_storage_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--server-storage", "redis"])

    def test_fleet_server_storage_reaches_the_config(self):
        from unittest import mock

        from repro.experiments import fleet as fleet_module

        captured = {}

        def fake_run_fleet(scale, config):
            captured["config"] = config
            raise SystemExit(0)

        with mock.patch.object(fleet_module, "run_fleet", fake_run_fleet):
            with pytest.raises(SystemExit):
                main(["fleet", "--mode", "batched",
                      "--server-storage", "sqlite"])
        assert captured["config"].server_storage == "sqlite"

    def test_fleet_server_storage_defaults_to_memory(self):
        args = build_parser().parse_args(["fleet"])
        assert args.server_storage is None

    def test_ingestion_experiment_registered(self):
        assert "ingestion" in _EXPERIMENTS


class TestCommands:
    def test_canonicalize(self, capsys):
        assert main(["canonicalize", "HTTP://EXAMPLE.com:80/a/../b#x"]) == 0
        assert capsys.readouterr().out.strip() == "http://example.com/b"

    def test_canonicalize_error_exit_code(self, capsys):
        assert main(["canonicalize", ""]) == 2
        assert "error:" in capsys.readouterr().err

    def test_decompose_prints_prefixes(self, capsys):
        assert main(["decompose", "https://petsymposium.org/2016/cfp.php"]) == 0
        output = capsys.readouterr().out
        assert "petsymposium.org/2016/cfp.php\t0xe70ee6d1" in output
        assert "petsymposium.org/\t0x33a02ef5" in output

    def test_prefix_custom_width(self, capsys):
        assert main(["prefix", "petsymposium.org/2016/cfp.php", "--bits", "64"]) == 0
        assert capsys.readouterr().out.strip().startswith("0xe70ee6d1")

    def test_track_leaf_target(self, capsys):
        code = main([
            "track", "https://petsymposium.org/2016/cfp.php",
            "https://petsymposium.org/2016/", "https://petsymposium.org/",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "mode   : leaf" in output
        assert "0xe70ee6d1" in output

    def test_experiment_table4(self, capsys):
        assert main(["experiment", "table4"]) == 0
        assert "0xe70ee6d1" in capsys.readouterr().out

    @needs_numpy
    def test_experiment_table5(self, capsys):
        assert main(["experiment", "table5"]) == 0
        assert "Raab-Steger" in capsys.readouterr().out


class TestIngestCommand:
    def test_ingest_runs_and_verifies(self, capsys, tmp_path):
        path = tmp_path / "ingest.sqlite"
        code = main(["ingest", "--path", str(path), "--initial", "120",
                     "--live", "80", "--batch-size", "40", "--clients", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Live ingestion" in output
        assert "converged" in output and "NO" not in output
        assert path.exists()

    def test_ingest_memory_storage(self, capsys):
        assert main(["ingest", "--storage", "memory", "--initial", "60",
                     "--live", "40", "--batch-size", "20",
                     "--clients", "1"]) == 0
        assert "memory storage" in capsys.readouterr().out

    def test_ingest_path_requires_sqlite_storage(self, capsys, tmp_path):
        assert main(["ingest", "--storage", "memory",
                     "--path", str(tmp_path / "x.sqlite")]) == 2
        assert "--storage sqlite" in capsys.readouterr().err

    def test_ingest_rejects_unknown_storage_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ingest", "--storage", "redis"])

    def test_ingest_rejects_http_transport(self, capsys):
        assert main(["ingest", "--transport", "http"]) == 2
        message = capsys.readouterr().err
        assert message.startswith("error: ")
        assert "'http'" in message and "in-process" in message


class TestSnapshotCommand:
    def test_snapshot_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["snapshot"])

    @needs_numpy
    def test_save_then_load_round_trip(self, capsys, tmp_path):
        path = tmp_path / "google.sqlite"
        assert main(["snapshot", "save", str(path)]) == 0
        saved = capsys.readouterr().out
        assert f"wrote {path}" in saved
        assert path.exists()

        assert main(["snapshot", "load", str(path)]) == 0
        loaded = capsys.readouterr().out
        assert "kind            : server" in loaded
        assert "format version  : 2" in loaded
        # A SQLite file carries no checksum, so none is claimed verified.
        assert "checksum" not in loaded
        assert "goog-malware-shavar" in loaded

    def test_load_reports_malformed_file_as_cli_error(
            self, capsys, malformed_snapshot):
        code = main(["snapshot", "load", str(malformed_snapshot.path)])
        captured = capsys.readouterr()
        if malformed_snapshot.case == "wrong-kind":
            # `snapshot load` reads either kind: this file is a valid one.
            assert code == 0 and not captured.err
            return
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert not captured.out

    def test_load_client_snapshot_reports_its_checksum(self, capsys,
                                                       updated_client,
                                                       tmp_path):
        path = updated_client.save_snapshot(tmp_path / "client.snap")
        assert main(["snapshot", "load", str(path)]) == 0
        loaded = capsys.readouterr().out
        assert "kind            : client" in loaded
        assert "checksum        : OK" in loaded

    @needs_numpy
    def test_save_sqlite_then_load_summary(self, capsys, tmp_path):
        path = tmp_path / "google.sqlite"
        assert main(["snapshot", "save", str(path)]) == 0
        saved = capsys.readouterr().out
        assert f"wrote {path} ({path.stat().st_size} bytes)" in saved

        assert main(["snapshot", "load", str(path), "--summary"]) == 0
        loaded = capsys.readouterr().out
        assert "container" not in loaded
        assert "version=" in loaded
        assert "full-hashes=" in loaded
        assert "goog-malware-shavar" in loaded

    @needs_numpy
    def test_restored_snapshot_serves_a_client(self, capsys, tmp_path):
        from repro.safebrowsing.client import SafeBrowsingClient
        from repro.safebrowsing.snapshot import load_server

        path = tmp_path / "google.sqlite"
        assert main(["snapshot", "save", str(path)]) == 0
        capsys.readouterr()
        server = load_server(path)
        client = SafeBrowsingClient(server, name="cli-restored")
        client.update()
        assert client.local_database_size() > 0
