"""The analytic unit-cell model (Eqs. 1-7) and its grid-model agreement."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units
from repro.constants import MICROCHANNEL
from repro.errors import ModelError
from repro.geometry.stack import build_stack
from repro.microchannel.geometry import ChannelGeometry
from repro.microchannel.model import MicrochannelModel
from repro.thermal.grid import ThermalGrid
from repro.thermal.rc_network import ThermalParams, build_network
from repro.thermal.solver import SteadyStateSolver

from analytic_cell import AnalyticUnitCell

FLOW = units.litres_per_minute(0.5)
W_PER_CM2 = 1.0e4  # the paper's heat-flux unit, in W/m^2


@pytest.fixture
def cell():
    return AnalyticUnitCell(model=MicrochannelModel())


class TestComponents:
    def test_dt_cond_eq2(self, cell):
        # dTcond = R_BEOL * q1; 30 W/cm^2 -> 5.333 K*mm^2/W * 0.3 W/mm^2.
        q = 30.0 * W_PER_CM2
        assert cell.dt_cond(q) == pytest.approx(MICROCHANNEL.r_beol * q)
        assert cell.dt_cond(q) == pytest.approx(1.6, rel=1e-3)

    def test_dt_cond_flow_independent(self, cell):
        """The paper: dTcond is independent of the flow rate."""
        assert cell.dt_cond(1.0e5) == cell.dt_cond(1.0e5)

    def test_dt_conv_uses_both_fluxes(self, cell):
        q = 20.0 * W_PER_CM2
        one = cell.dt_conv(q, 0.0, FLOW)
        both = cell.dt_conv(q, q, FLOW)
        assert both == pytest.approx(2 * one)

    def test_dt_conv_falls_with_flow(self, cell):
        q = 20.0 * W_PER_CM2
        assert cell.dt_conv(q, q, MICROCHANNEL.flow_rate_min) > cell.dt_conv(
            q, q, MICROCHANNEL.flow_rate_max
        )

    def test_dt_heat_uniform_eq45(self, cell):
        q = 20.0 * W_PER_CM2
        area = 1.0e-4
        r_heat = cell.model.r_heat(area, FLOW)
        assert cell.dt_heat_uniform(q, q, area, FLOW) == pytest.approx(2 * q * r_heat)

    def test_junction_rise_is_sum(self, cell):
        q = 20.0 * W_PER_CM2
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
        q = 20.0 * W_PER_CM2
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
    """The grid model against the oracle: uniform heat flux over the
    whole bottom die, where the unit cell's assumptions hold."""

    FLOWS = (3.3e-6, 6.7e-6, 1.0e-5, 1.67e-5)
    HEAT_FLUX = 2.0e5

    @pytest.fixture(scope="class")
    def outlet_rises(self):
        """Grid mean coolant outlet rise above inlet, K, per flow."""
        stack = build_stack(2)
        grid = ThermalGrid(stack, nx=12, ny=12)
        die_nodes = grid.slab_nodes(grid.die_slab_index(0)).ravel()
        outlet_nodes = np.concatenate(
            [grid.slab_nodes(s)[:, -1] for s in grid.cavity_slab_indices()]
        )
        params = ThermalParams()
        rises = {}
        for flow in self.FLOWS:
            net = build_network(grid, params, cavity_flows=[flow])
            power = np.zeros(net.n_nodes)
            power[die_nodes] = self.HEAT_FLUX * stack.width * stack.height / die_nodes.size
            temps = SteadyStateSolver(net).solve(power)
            rises[flow] = float(temps[outlet_nodes].mean()) - params.inlet_temperature
        return rises

    @pytest.mark.parametrize("flow", FLOWS)
    def test_grid_tracks_analytic_sensible_heat(self, outlet_rises, flow):
        """The grid model's mean coolant outlet rise equals Eq. 4/5 for
        the heat actually absorbed: the cavities run in parallel, so
        each carries its share of the die's flux. Energy conservation
        is exact in both models."""
        stack = build_stack(2)
        cell = AnalyticUnitCell(
            model=MicrochannelModel(
                geometry=ChannelGeometry(length=stack.width), die_height=stack.height
            )
        )
        area = stack.width * stack.height
        expected = cell.dt_heat_uniform(
            self.HEAT_FLUX / stack.n_cavities, 0.0, area, flow
        )
        # Eq. 5 in capacity-rate form: the same rise from m_dot * c_p.
        assert expected == pytest.approx(
            self.HEAT_FLUX * area
            / (cell.model.cavity_heat_capacity_rate(flow) * stack.n_cavities),
            rel=1e-12,
        )
        assert abs(outlet_rises[flow] - expected) / expected < 1.0e-6

    def test_rise_falls_with_flow(self, outlet_rises):
        rises = [outlet_rises[flow] for flow in self.FLOWS]
        assert rises == sorted(rises, reverse=True)

    def test_rise_inversely_proportional_to_flow(self, outlet_rises):
        """Eq. 5: R_heat ~ 1/Vdot, so rise * flow is constant."""
        products = [outlet_rises[flow] * flow for flow in self.FLOWS]
        for product in products[1:]:
            assert product == pytest.approx(products[0], rel=1e-3)
