"""Controller-engine interaction details."""

import pytest

from repro.sim.config import CoolingMode, PolicyKind, SimulationConfig
from repro.sim.engine import default_cache, simulate


class TestCharacterizationGuard:
    def test_guard_raises_required_settings(self):
        """A larger guard band makes the LUT more conservative: the
        average pump setting can only rise."""
        results = {}
        for guard in (0.0, 3.0):
            config = SimulationConfig(
                benchmark_name="Database",
                policy=PolicyKind.TALB,
                cooling=CoolingMode.LIQUID_VARIABLE,
                duration=8.0,
                characterization_guard=guard,
            )
            results[guard] = simulate(config)
        assert (
            results[3.0].mean_flow_setting()
            >= results[0.0].mean_flow_setting() - 1e-9
        )

    def test_burst_floor_is_cached_and_sane(self):
        from repro.geometry.stack import CoolingKind
        from repro.sim.system import ThermalSystem

        config = SimulationConfig(
            benchmark_name="gzip",
            cooling=CoolingMode.LIQUID_VARIABLE,
            duration=1.0,
        )
        system = ThermalSystem(2, CoolingKind.LIQUID)
        floor_a = default_cache().floor(system, config)
        floor_b = default_cache().floor(system, config)
        assert floor_a == floor_b
        assert 0 <= floor_a < system.pump.n_settings


class TestPumpTransitionsInRuns:
    def test_variable_run_starts_at_max_and_descends(self):
        """The engine starts the pump at the safe maximum; on a light
        workload the commanded setting must come down within the first
        seconds (after the hysteresis-guarded decision)."""
        config = SimulationConfig(
            benchmark_name="MPlayer",
            policy=PolicyKind.TALB,
            cooling=CoolingMode.LIQUID_VARIABLE,
            duration=6.0,
        )
        result = simulate(config)
        assert result.flow_setting[0] <= 4
        assert result.flow_setting[-1] < 4

    def test_pump_power_tracks_commanded_setting(self):
        config = SimulationConfig(
            benchmark_name="Database",
            policy=PolicyKind.TALB,
            cooling=CoolingMode.LIQUID_VARIABLE,
            duration=6.0,
        )
        result = simulate(config)
        from repro.pump.laing_ddc import laing_ddc

        pump = laing_ddc(3)
        for k in range(len(result.times)):
            setting = int(result.flow_setting[k])
            assert result.pump_power[k] == pytest.approx(
                pump.setting(setting).power, rel=1e-6
            )


class TestTableCache:
    def test_characterization_shared_between_runs(self):
        from repro.geometry.stack import CoolingKind
        from repro.sim.system import ThermalSystem

        config = SimulationConfig(
            benchmark_name="gzip",
            cooling=CoolingMode.LIQUID_VARIABLE,
            duration=1.0,
        )
        system = ThermalSystem(2, CoolingKind.LIQUID)
        table_a = default_cache().table(system, config)
        table_b = default_cache().table(system, config)
        assert table_a is table_b
