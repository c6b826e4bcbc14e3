"""The ThermalSystem bundle: caches and steady-state evaluation."""

import pytest

from repro.errors import ConfigurationError
from repro.geometry.stack import CoolingKind
from repro.power.components import PowerModel
from repro.power.leakage import LeakageModel
from repro.sim.system import ThermalSystem

from helpers import power_vector


@pytest.fixture(scope="module")
def system():
    return ThermalSystem(2, CoolingKind.LIQUID, nx=10, ny=10)


@pytest.fixture(scope="module")
def air_system():
    return ThermalSystem(2, CoolingKind.AIR, nx=10, ny=10)


@pytest.fixture(scope="module")
def power_model(system):
    return PowerModel(system.stack, leakage=LeakageModel())


class TestCaches:
    def test_network_cached_per_setting(self, system):
        assert system.network(0) is system.network(0)
        assert system.network(0) is not system.network(1)

    def test_transient_solver_cached(self, system):
        assert system.transient_solver(0, 0.1) is system.transient_solver(0, 0.1)
        assert system.transient_solver(0, 0.1) is not system.transient_solver(0, 0.05)

    def test_air_rejects_setting(self, air_system):
        with pytest.raises(ConfigurationError):
            air_system.network(0)

    def test_air_rejects_continuous_flow(self, air_system):
        with pytest.raises(ConfigurationError):
            air_system.network_for_flow(1.0e-5)

    def test_pump_sized_to_cavities(self, system):
        assert system.pump.n_cavities == 3

    def test_four_layer_pump(self):
        sys4 = ThermalSystem(4, CoolingKind.LIQUID, nx=8, ny=8)
        assert sys4.pump.n_cavities == 5


class TestSteadyState:
    def test_tmax_monotone_in_utilization(self, system, power_model):
        temps = [
            system.steady_tmax(power_model, u, setting_index=0)
            for u in (0.0, 0.3, 0.6, 0.9)
        ]
        assert temps == sorted(temps)

    def test_tmax_monotone_in_flow_setting(self, system, power_model):
        temps = [
            system.steady_tmax(power_model, 0.9, setting_index=k) for k in range(5)
        ]
        assert temps == sorted(temps, reverse=True)

    def test_operating_band_matches_figure5(self):
        """Calibration: at the default (16x16) resolution the hottest
        workload spans roughly the 70-90 degC band of Figure 5 between
        min and max flow."""
        system = ThermalSystem(2, CoolingKind.LIQUID, nx=16, ny=16)
        power_model = PowerModel(system.stack, leakage=LeakageModel())
        hot_min = system.steady_tmax(power_model, 0.93, setting_index=0)
        hot_max = system.steady_tmax(power_model, 0.93, setting_index=4)
        assert 82.0 < hot_min < 90.0
        assert 72.0 < hot_max < 80.0

    def test_concentrated_hotter_than_uniform_same_total(self, system, power_model):
        """One core at 100% runs locally hotter than all cores at
        12.5% — the burst-floor rationale."""
        concentrated = system.steady_tmax_concentrated(power_model, setting_index=0)
        uniform = system.steady_tmax(power_model, 1.0 / 8.0, setting_index=0)
        assert concentrated > uniform

    def test_utilization_validated(self, system, power_model):
        with pytest.raises(ConfigurationError):
            system.steady_tmax(power_model, 1.5, setting_index=0)

    def test_concentrated_core_count_validated(self, system, power_model):
        with pytest.raises(ConfigurationError):
            system.steady_tmax_concentrated(power_model, setting_index=0, n_active=99)

    def test_continuous_flow_between_settings(self, system, power_model):
        """A flow between two settings produces a T_max between their
        T_max values."""
        f1 = system.pump.setting(1).per_cavity_flow
        f2 = system.pump.setting(2).per_cavity_flow
        net_mid = system.network_for_flow(0.5 * (f1 + f2))
        from repro.thermal.solver import SteadyStateSolver

        p = power_vector(system.grid, {(0, f"core{i}"): 3.0 for i in range(8)})
        t_mid = system.grid.max_unit_temperature(SteadyStateSolver(net_mid).solve(p))
        t1 = system.grid.max_unit_temperature(
            SteadyStateSolver(system.network(1)).solve(p)
        )
        t2 = system.grid.max_unit_temperature(
            SteadyStateSolver(system.network(2)).solve(p)
        )
        assert t2 < t_mid < t1
