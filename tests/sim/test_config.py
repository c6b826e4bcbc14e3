"""Simulation configuration validation."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.config import CoolingMode, PolicyKind, SimulationConfig


class TestValidation:
    def test_defaults_valid(self):
        config = SimulationConfig()
        assert config.n_cores == 8

    def test_four_layer_has_16_cores(self):
        assert SimulationConfig(n_layers=4).n_cores == 16

    def test_rejects_bad_layers(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(n_layers=3)

    @pytest.mark.parametrize("duration", [0.0, 0.04, 0.05])
    def test_rejects_bad_duration(self, duration):
        """``round(duration / sampling_interval)`` intervals run, so a
        duration of half an interval or less would run none."""
        with pytest.raises(ConfigurationError, match="duration"):
            SimulationConfig(duration=duration)

    def test_accepts_duration_of_one_interval(self):
        assert SimulationConfig(duration=0.06).duration == 0.06

    def test_rejects_non_multiple_interval(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(quantum=0.03, sampling_interval=0.1)

    def test_rejects_interval_below_quantum(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(quantum=0.2, sampling_interval=0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", [
        "duration", "quantum", "sampling_interval", "target_temperature",
        "hysteresis", "talb_weight_target", "characterization_guard",
    ])
    def test_rejects_non_finite_float_field(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            SimulationConfig(**{name: value})

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(Exception):
            SimulationConfig(benchmark_name="SPECjbb")

    def test_spec_property(self):
        assert SimulationConfig(benchmark_name="gzip").spec.name == "gzip"

    @pytest.mark.parametrize("kw", [
        {"nx": 0}, {"ny": 0}, {"nx": -4}, {"nx": 2.5}, {"nx": True},
    ])
    def test_rejects_bad_grid_resolution(self, kw):
        with pytest.raises(ConfigurationError, match="nx and ny"):
            SimulationConfig(**kw)

    @pytest.mark.parametrize("seed", [-1, 0.5, True])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            SimulationConfig(seed=seed)

    def test_rejects_non_cooling_mode(self):
        with pytest.raises(ConfigurationError, match="cooling"):
            SimulationConfig(cooling="Var")


class TestRegistryKeys:
    def test_enum_and_string_spellings_are_one_config(self):
        by_enum = SimulationConfig(
            policy=PolicyKind.MIGRATION, controller="LUT"
        )
        by_key = SimulationConfig(policy="mig", controller="lut")
        assert by_enum == by_key
        assert hash(by_enum) == hash(by_key)
        assert by_enum.policy == "Mig"

    def test_registry_only_components_construct(self):
        config = SimulationConfig(
            policy="RR", controller="pid", controller_params={"kp": 1}
        )
        assert config.policy == "RR"
        assert config.controller == "pid"
        # Params are coerced (int -> float) and frozen.
        assert config.controller_params == {"kp": 1.0}
        with pytest.raises(TypeError):
            config.controller_params["kp"] = 2.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown policy"):
            SimulationConfig(policy="FIFO")
        with pytest.raises(ConfigurationError, match="unknown flow controller"):
            SimulationConfig(controller="bangbang")
        with pytest.raises(ConfigurationError, match="unknown forecaster"):
            SimulationConfig(forecaster="oracle")

    def test_undeclared_param_rejected(self):
        with pytest.raises(ConfigurationError, match="no parameter"):
            SimulationConfig(policy="LB", policy_params={"bogus": 1})

    def test_param_bounds_enforced(self):
        with pytest.raises(ConfigurationError, match=">="):
            SimulationConfig(policy="LB", policy_params={"threshold": 0})

    def test_non_mapping_params_rejected(self):
        with pytest.raises(ConfigurationError, match="mapping"):
            SimulationConfig(policy_params=3)


class TestLabels:
    def test_figure_style_label(self):
        config = SimulationConfig(
            policy=PolicyKind.TALB, cooling=CoolingMode.LIQUID_VARIABLE
        )
        assert config.label() == "TALB (Var)"

    def test_cooling_is_liquid(self):
        assert CoolingMode.LIQUID_MAX.is_liquid
        assert CoolingMode.LIQUID_VARIABLE.is_liquid
        assert not CoolingMode.AIR.is_liquid
