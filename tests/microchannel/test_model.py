"""Microchannel heat-transfer model (Eqs. 4-7 + developing-flow h)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units
from repro.constants import MICROCHANNEL
from repro.errors import ModelError
from repro.microchannel.model import (
    MicrochannelModel,
    graetz_number,
    nusselt_developing,
    reynolds_number,
)

FLOWS = st.floats(min_value=1.0e-6, max_value=MICROCHANNEL.flow_rate_max)


@pytest.fixture
def model():
    return MicrochannelModel()


class TestDimensionlessNumbers:
    def test_reynolds_laminar_at_min_flow(self, model):
        re = reynolds_number(model.geometry, model.coolant, MICROCHANNEL.flow_rate_min)
        assert 100 < re < 2300  # Laminar at the Table I minimum.

    def test_reynolds_scales_linearly(self, model):
        r1 = reynolds_number(model.geometry, model.coolant, 1.0e-5)
        r2 = reynolds_number(model.geometry, model.coolant, 2.0e-5)
        assert r2 == pytest.approx(2 * r1)

    def test_graetz_is_dh_re_pr_over_length(self, model):
        g, c = model.geometry, model.coolant
        re = reynolds_number(g, c, MICROCHANNEL.flow_rate_min)
        gz = graetz_number(g, c, MICROCHANNEL.flow_rate_min)
        assert gz == pytest.approx(g.hydraulic_diameter * re * c.prandtl / g.length)
        assert graetz_number(g, c, 2 * MICROCHANNEL.flow_rate_min) == pytest.approx(2 * gz)

    def test_nusselt_floor_is_fully_developed(self):
        assert nusselt_developing(0.0) == pytest.approx(3.66)

    def test_nusselt_monotone_in_graetz(self):
        values = [nusselt_developing(g) for g in (0.0, 1.0, 10.0, 100.0, 1000.0)]
        assert values == sorted(values)

    def test_nusselt_rejects_negative(self):
        with pytest.raises(ModelError):
            nusselt_developing(-1.0)


class TestHeatTransferCoefficient:
    def test_anchored_at_table1_value(self, model):
        # h(max flow) == the paper's 37132 W/(m^2 K) by construction.
        h = model.heat_transfer_coefficient(MICROCHANNEL.flow_rate_max)
        assert h == pytest.approx(MICROCHANNEL.heat_transfer_coefficient, rel=1e-9)

    def test_h_falls_below_anchor_flow(self, model):
        h_min = model.heat_transfer_coefficient(MICROCHANNEL.flow_rate_min)
        h_max = model.heat_transfer_coefficient(MICROCHANNEL.flow_rate_max)
        assert h_min < h_max
        assert h_min > 0.2 * h_max  # Bounded by the Nu floor.

    @given(FLOWS, FLOWS)
    def test_h_monotone_in_flow(self, f1, f2):
        model = MicrochannelModel()
        lo, hi = sorted((f1, f2))
        assert model.heat_transfer_coefficient(lo) <= model.heat_transfer_coefficient(
            hi
        ) * (1 + 1e-9)

    def test_h_rejects_negative_flow(self, model):
        with pytest.raises(ModelError):
            model.heat_transfer_coefficient(-1.0)


class TestEffectiveH:
    def test_eq7_fin_factor(self, model):
        flow = MICROCHANNEL.flow_rate_max
        h = model.heat_transfer_coefficient(flow)
        factor = model.geometry.fin_area_factor(model.die_height)
        assert model.effective_h(flow) == pytest.approx(h * factor)

    def test_convective_resistance_inverse(self, model):
        flow = MICROCHANNEL.flow_rate_max
        assert model.convective_resistance_area(flow) == pytest.approx(
            1.0 / model.effective_h(flow)
        )


class TestRHeat:
    def test_eq5_value(self, model):
        # R_th-heat = A / (c_p * rho * Vdot); for 1 cm^2 at 1 l/min.
        area = 1.0e-4
        flow = units.litres_per_minute(1.0)
        expected = area / (4183.0 * 998.0 * flow)
        assert model.r_heat(area, flow) == pytest.approx(expected)

    def test_r_heat_halves_when_flow_doubles(self, model):
        area = 1.0e-4
        assert model.r_heat(area, 2.0e-5) == pytest.approx(
            model.r_heat(area, 1.0e-5) / 2
        )

    def test_rejects_zero_flow(self, model):
        with pytest.raises(ModelError):
            model.r_heat(1.0e-4, 0.0)

    def test_rejects_bad_area(self, model):
        with pytest.raises(ModelError):
            model.r_heat(0.0, 1.0e-5)


class TestCapacityRate:
    def test_capacity_rate(self, model):
        flow = units.litres_per_minute(1.0)
        # m_dot * c_p = rho * Vdot * c_p.
        assert model.cavity_heat_capacity_rate(flow) == pytest.approx(
            998.0 * flow * 4183.0
        )

    @given(FLOWS)
    def test_capacity_rate_linear(self, flow):
        model = MicrochannelModel()
        assert model.cavity_heat_capacity_rate(2 * flow) == pytest.approx(
            2 * model.cavity_heat_capacity_rate(flow), rel=1e-9
        )
