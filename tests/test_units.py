"""Unit conversion helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units

finite_positive = st.floats(
    min_value=1.0e-9, max_value=1.0e9, allow_nan=False, allow_infinity=False
)


class TestLength:
    def test_um(self):
        assert units.um(50) == pytest.approx(50.0e-6)

    def test_mm(self):
        assert units.mm(0.15) == pytest.approx(1.5e-4)

    def test_mm2(self):
        assert units.mm2(115) == pytest.approx(1.15e-4)


class TestFlow:
    def test_litres_per_hour(self):
        # 375 l/h (the pump maximum) in m^3/s.
        assert units.litres_per_hour(375) == pytest.approx(1.0417e-4, rel=1e-3)

    def test_litres_per_minute(self):
        # Table I's 1 l/min per cavity.
        assert units.litres_per_minute(1.0) == pytest.approx(1.6667e-5, rel=1e-3)

    def test_ml_per_minute_equals_milli_litres_per_minute(self):
        assert units.ml_per_minute(1000.0) == pytest.approx(
            units.litres_per_minute(1.0)
        )

    def test_lh_to_mlmin_consistency(self):
        # 75 l/h = 1250 ml/min.
        flow = units.litres_per_hour(75)
        assert units.to_ml_per_minute(flow) == pytest.approx(1250.0)

    @given(finite_positive)
    def test_lh_round_trip(self, value):
        assert units.to_litres_per_hour(units.litres_per_hour(value)) == pytest.approx(
            value
        )

    @given(finite_positive)
    def test_mlmin_round_trip(self, value):
        assert units.to_ml_per_minute(units.ml_per_minute(value)) == pytest.approx(
            value
        )


class TestResistance:
    def test_k_mm2_per_w(self):
        assert units.k_mm2_per_w(5.333) == pytest.approx(5.333e-6)


class TestTime:
    @given(finite_positive)
    def test_to_ms(self, value):
        assert units.to_ms(value * 1.0e-3) == pytest.approx(value)
