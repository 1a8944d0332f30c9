"""Unit tests for the population-profile registry (heterogeneous fleets)."""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")  # the fleet layers pulled in below are numpy-backed

from repro.exceptions import ExperimentError
from repro.experiments.fleet import FleetConfig, FleetSimulator, run_fleet
from repro.experiments.profiles import (
    PROFILE_FACTORIES,
    ClientProfile,
    build_profile,
    unit_uniform,
)
from repro.experiments.scale import Scale

TINY = Scale(
    name="tiny-profiles",
    corpus_hosts=40,
    blacklist_fraction=0.002,
    stats_sites=10,
    index_sites=10,
    tracked_targets=3,
    clients=6,
    fleet_urls_per_client=30,
    fleet_batch_size=10,
)


class TestUnitUniform:
    def test_in_unit_interval(self):
        for parts in ((1,), (1, 2), ("a", 3.5), (0, 0, 0, "online")):
            value = unit_uniform(*parts)
            assert 0.0 <= value < 1.0

    def test_deterministic_across_calls(self):
        assert unit_uniform(7, "x", 3) == unit_uniform(7, "x", 3)

    def test_distinct_keys_give_distinct_draws(self):
        draws = {unit_uniform("k", index) for index in range(64)}
        assert len(draws) == 64


class TestRegistry:
    def test_registered_names(self):
        assert sorted(PROFILE_FACTORIES) == [
            "desktop", "global-mix", "mobile", "regional", "uniform",
        ]

    def test_unknown_profile_rejected_with_registered_list(self):
        with pytest.raises(ExperimentError) as excinfo:
            build_profile("metaverse")
        message = str(excinfo.value)
        assert "metaverse" in message
        for name in PROFILE_FACTORIES:
            assert name in message

    def test_fleet_config_validates_profile(self):
        with pytest.raises(ExperimentError):
            FleetConfig(profile="nope")

    def test_uniform_returns_base_unchanged(self):
        base = ClientProfile(working_set_size=17, zipf_exponent=1.3)
        population = build_profile("uniform")
        for index in range(8):
            assert population.profile_for(base, seed=42, index=index) is base

    def test_assignment_is_deterministic_in_seed_and_index(self):
        base = ClientProfile()
        population = build_profile("global-mix")
        first = [population.profile_for(base, seed=9, index=i) for i in range(16)]
        second = [population.profile_for(base, seed=9, index=i) for i in range(16)]
        assert first == second
        # Different seeds produce a different population mix.
        other = [population.profile_for(base, seed=10, index=i) for i in range(16)]
        assert first != other


class TestClientProfileValidation:
    def test_defaults_are_valid(self):
        profile = ClientProfile()
        assert profile.connectivity == 1.0
        assert profile.privacy_policy is None

    @pytest.mark.parametrize("kwargs", [
        {"working_set_size": 0},
        {"working_set_fraction": 1.5},
        {"malicious_fraction": -0.1},
        {"working_set_fraction": 0.9, "malicious_fraction": 0.2},
        {"zipf_exponent": 0.0},
        {"locale_lo": 0.5, "locale_hi": 0.5},
        {"locale_lo": -0.1},
        {"locale_hi": 1.1},
        {"activity_amplitude": 1.5},
        {"connectivity": 0.0},
        {"tracked_visit_fraction": 2.0},
        {"tracked_visit_fraction": -0.1},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ExperimentError):
            ClientProfile(**kwargs)


class TestActivity:
    def test_always_on_without_cycle(self):
        profile = ClientProfile()
        assert profile.active_probability(0.0) == 1.0
        assert profile.online(seed=1, index=0, round_index=5, round_seconds=600)

    def test_diurnal_cycle_peaks_at_peak_hour(self):
        profile = ClientProfile(activity_amplitude=0.6, activity_peak_hour=14.0)
        peak = profile.active_probability(14.0 * 3600.0)
        trough = profile.active_probability(2.0 * 3600.0)
        assert peak == pytest.approx(1.0)
        assert trough == pytest.approx(0.4)

    def test_connectivity_scales_probability(self):
        profile = ClientProfile(connectivity=0.7)
        assert profile.active_probability(0.0) == pytest.approx(0.7)

    def test_online_draw_matches_probability_key(self):
        profile = ClientProfile(connectivity=0.5)
        expected = unit_uniform(3, 4, 7, "online") < 0.5
        assert profile.online(seed=3, index=4, round_index=7,
                              round_seconds=600) == expected


class TestHeterogeneousFleetRuns:
    def test_mobile_profile_produces_offline_rounds_and_reconnects(self):
        config = FleetConfig(profile="mobile", warm_start=True, seed=11)
        report = run_fleet(TINY, config)
        assert report.profile == "mobile"
        assert report.offline_client_rounds > 0
        assert report.reconnect_restarts > 0
        assert report.client_restarts >= report.reconnect_restarts

    def test_uniform_profile_matches_legacy_run(self):
        legacy = run_fleet(TINY, FleetConfig(seed=11))
        uniform = run_fleet(TINY, FleetConfig(profile="uniform", seed=11))
        assert uniform.traffic_signature() == legacy.traffic_signature()
        assert uniform.offline_client_rounds == 0
        assert uniform.reconnect_restarts == 0

    def test_regional_profile_slices_streams(self):
        simulator = FleetSimulator(TINY, FleetConfig(profile="regional", seed=5))
        allowed = (set(simulator._context.url_pool("alexa"))
                   | set(simulator.tracked_targets())
                   | set(simulator._blacklisted_urls()))
        for index in range(TINY.clients):
            stream = simulator.client_stream(index)
            # Every stream still draws from the shared pool (plus malicious
            # and planted tracked URLs), just through a locale-sliced window.
            assert set(stream) <= allowed
