"""The analytic unit-cell model (Eqs. 1-7) and its grid-model agreement."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units
from repro.constants import MICROCHANNEL
from repro.errors import ModelError
from repro.microchannel.model import MicrochannelModel
from repro.thermal.analytic import AnalyticUnitCell

from helpers import power_vector

FLOW = units.litres_per_minute(0.5)


@pytest.fixture
def cell():
    return AnalyticUnitCell(model=MicrochannelModel())


class TestComponents:
    def test_dt_cond_eq2(self, cell):
        # dTcond = R_BEOL * q1; 30 W/cm^2 -> 5.333 K*mm^2/W * 0.3 W/mm^2.
        q = units.w_per_cm2(30.0)
        assert cell.dt_cond(q) == pytest.approx(MICROCHANNEL.r_beol * q)
        assert cell.dt_cond(q) == pytest.approx(1.6, rel=1e-3)

    def test_dt_cond_flow_independent(self, cell):
        """The paper: dTcond is independent of the flow rate."""
        assert cell.dt_cond(1.0e5) == cell.dt_cond(1.0e5)

    def test_dt_conv_uses_both_fluxes(self, cell):
        q = units.w_per_cm2(20.0)
        one = cell.dt_conv(q, 0.0, FLOW)
        both = cell.dt_conv(q, q, FLOW)
        assert both == pytest.approx(2 * one)

    def test_dt_conv_falls_with_flow(self, cell):
        q = units.w_per_cm2(20.0)
        assert cell.dt_conv(q, q, MICROCHANNEL.flow_rate_min) > cell.dt_conv(
            q, q, MICROCHANNEL.flow_rate_max
        )

    def test_dt_heat_uniform_eq45(self, cell):
        q = units.w_per_cm2(20.0)
        area = 1.0e-4
        r_heat = cell.model.r_heat(area, FLOW)
        assert cell.dt_heat_uniform(q, q, area, FLOW) == pytest.approx(2 * q * r_heat)

    def test_junction_rise_is_sum(self, cell):
        q = units.w_per_cm2(20.0)
        result = cell.junction_rise(q, q, 1.0e-4, FLOW)
        assert result.dt_junction == pytest.approx(
            result.dt_cond + result.dt_heat + result.dt_conv
        )

    def test_negative_flux_rejected(self, cell):
        with pytest.raises(ModelError):
            cell.dt_cond(-1.0)
        with pytest.raises(ModelError):
            cell.dt_conv(-1.0, 0.0, FLOW)


class TestHeatProfile:
    def test_uniform_profile_matches_eq4(self, cell):
        """The iterative computation at uniform flux ends at the value
        Eq. 4/5 gives for the whole heater."""
        n = 50
        area_total = 1.0e-4
        q = units.w_per_cm2(20.0)
        fluxes = np.full(n, 2 * q)  # q1 + q2.
        profile = cell.heat_profile(fluxes, area_total / n, FLOW)
        assert profile[-1] == pytest.approx(
            cell.dt_heat_uniform(q, q, area_total, FLOW), rel=1e-9
        )

    def test_profile_monotone_nondecreasing(self, cell):
        rng = np.random.default_rng(1)
        fluxes = rng.uniform(0.0, 2.0e5, 40)
        profile = cell.heat_profile(fluxes, 1.0e-6, FLOW)
        assert np.all(np.diff(profile) >= -1e-12)

    def test_profile_is_cumulative_sum(self, cell):
        """dTheat(n+1) = sum_{i<=n} dTheat(i) — the paper's recurrence."""
        fluxes = np.array([1.0e5, 2.0e5, 0.5e5])
        seg = 1.0e-6
        profile = cell.heat_profile(fluxes, seg, FLOW)
        rate = cell.model.cavity_heat_capacity_rate(FLOW)
        per_pos = fluxes * seg / rate
        assert np.allclose(profile, np.cumsum(per_pos))

    def test_zero_flow_rejected(self, cell):
        with pytest.raises(ModelError):
            cell.heat_profile(np.ones(3), 1.0e-6, 0.0)

    def test_negative_flux_rejected(self, cell):
        with pytest.raises(ModelError):
            cell.heat_profile(np.array([-1.0]), 1.0e-6, FLOW)

    @given(st.floats(min_value=1e-6, max_value=1.6e-5))
    def test_profile_scales_inversely_with_flow(self, flow):
        cell = AnalyticUnitCell(model=MicrochannelModel())
        fluxes = np.full(10, 1.0e5)
        p1 = cell.heat_profile(fluxes, 1.0e-6, flow)
        p2 = cell.heat_profile(fluxes, 1.0e-6, 2 * flow)
        assert np.allclose(p1, 2 * p2, rtol=1e-9)


class TestGridAgreement:
    def test_grid_tracks_analytic_sensible_heat(self):
        """The grid model's coolant outlet rise equals the analytic
        m_dot*c_p energy balance for the heat actually absorbed."""
        from repro.geometry.stack import build_stack
        from repro.thermal.grid import ThermalGrid
        from repro.thermal.rc_network import ThermalParams, build_network
        from repro.thermal.solver import SteadyStateSolver

        grid = ThermalGrid(build_stack(2), nx=10, ny=10)
        net = build_network(grid, ThermalParams(), cavity_flows=[FLOW])
        total_power = 24.0
        p = power_vector(grid, {(0, f"core{i}"): 3.0 for i in range(8)})
        temps = SteadyStateSolver(net).solve(p)

        coolant = MicrochannelModel().coolant
        capacity_rate_total = coolant.mass_flow(FLOW) * coolant.heat_capacity * 3
        expected_mean_rise = total_power / capacity_rate_total

        outlet_nodes = np.concatenate(
            [grid.slab_nodes(s)[:, -1] for s in grid.cavity_slab_indices()]
        )
        mean_outlet_rise = float(temps[outlet_nodes].mean()) - 60.0
        assert mean_outlet_rise == pytest.approx(expected_mean_rise, rel=0.05)
