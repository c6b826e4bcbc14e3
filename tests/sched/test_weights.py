"""Thermal weight computation from the RC network."""

import pytest

from repro import units
from repro.errors import SchedulingError
from repro.geometry.stack import build_stack
from repro.sched.weights import ThermalWeights
from repro.thermal.grid import ThermalGrid
from repro.thermal.rc_network import ThermalParams, build_network


class TestNormalization:
    def test_mean_one(self):
        w = ThermalWeights({"a": 2.0, "b": 4.0})
        values = w.as_dict()
        assert sum(values.values()) / len(values) == pytest.approx(1.0)

    def test_relative_order_preserved(self):
        w = ThermalWeights({"a": 1.0, "b": 3.0})
        assert w["b"] == pytest.approx(3.0 * w["a"])

    def test_rejects_empty(self):
        with pytest.raises(SchedulingError):
            ThermalWeights({})

    def test_rejects_non_positive(self):
        with pytest.raises(SchedulingError):
            ThermalWeights({"a": 0.0})

    def test_unknown_core(self):
        with pytest.raises(SchedulingError):
            ThermalWeights({"a": 1.0})["b"]


class TestFromNetwork:
    @pytest.fixture(scope="class")
    def liquid_low_flow(self):
        grid = ThermalGrid(build_stack(2), nx=12, ny=12)
        return build_network(
            grid, ThermalParams(), cavity_flows=[units.ml_per_minute(208.0)]
        )

    def test_covers_all_cores(self, liquid_low_flow):
        w = ThermalWeights.from_network(liquid_low_flow)
        assert set(w.as_dict()) == {f"core{i}" for i in range(8)}

    def test_all_positive_and_normalized(self, liquid_low_flow):
        w = ThermalWeights.from_network(liquid_low_flow)
        values = w.as_dict()
        assert all(v > 0 for v in values.values())
        assert sum(values.values()) / len(values) == pytest.approx(1.0)

    def test_downstream_cores_weighted_higher(self, liquid_low_flow):
        """Cores near the channel outlet see warmer coolant, so they
        can dissipate less power for a balanced temperature and must
        receive higher weights (fewer threads)."""
        w = ThermalWeights.from_network(liquid_low_flow).as_dict()
        # core0 is at the inlet end, core3 at the outlet end of a row.
        assert w["core3"] > w["core0"]

    def test_background_power_shifts_weights(self, liquid_low_flow):
        plain = ThermalWeights.from_network(liquid_low_flow).as_dict()
        loaded = ThermalWeights.from_network(
            liquid_low_flow, background_power=1.0
        ).as_dict()
        assert any(
            abs(plain[k] - loaded[k]) > 1.0e-6 for k in plain
        )

    def test_four_layer_has_16_cores(self):
        grid = ThermalGrid(build_stack(4), nx=10, ny=10)
        net = build_network(
            grid, ThermalParams(), cavity_flows=[units.ml_per_minute(125.0)]
        )
        w = ThermalWeights.from_network(net)
        assert len(w.as_dict()) == 16
