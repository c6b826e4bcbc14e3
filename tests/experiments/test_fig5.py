"""Figure 5 regeneration: flow requirement staircase."""

import numpy as np
import pytest

from repro.constants import MICROCHANNEL
from repro.experiments import fig5
from repro.geometry.stack import CoolingKind
from repro.power.components import PowerModel
from repro.power.leakage import LeakageModel
from repro.sim.system import ThermalSystem


@pytest.fixture(scope="module")
def rows_2layer():
    return fig5.run(
        n_layers=2,
        utilizations=(0.0, 0.3, 0.6, 0.93),
        include_continuous=False,
    )


class TestStaircase:
    def test_tmax_monotone_in_utilization(self, rows_2layer):
        temps = [r["tmax_at_lowest"] for r in rows_2layer]
        assert temps == sorted(temps)

    def test_required_setting_monotone(self, rows_2layer):
        settings = [r["required_setting"] for r in rows_2layer]
        assert settings == sorted(settings)

    def test_x_axis_spans_paper_band(self, rows_2layer):
        """Figure 5's x axis runs from ~70 to ~90 degC."""
        temps = [r["tmax_at_lowest"] for r in rows_2layer]
        assert 68.0 < temps[0] < 78.0
        assert 82.0 < temps[-1] < 92.0

    def test_idle_needs_minimum_flow(self, rows_2layer):
        assert rows_2layer[0]["required_setting"] == 0

    def test_hottest_needs_near_maximum(self, rows_2layer):
        assert rows_2layer[-1]["required_setting"] >= 3

    def test_selected_settings_hold_target(self, rows_2layer):
        assert all(r["holds_target"] for r in rows_2layer)


class TestContinuousFlowTmaxIsBitwisePinned:
    """The continuous-flow steady T_max behind the bisection, recorded
    when fig5 still ran its own dict-based leakage fixed point; the
    shared vector fixed point must reproduce it exactly."""

    FLOWS = (
        MICROCHANNEL.flow_rate_min * 0.5,
        0.5 * (MICROCHANNEL.flow_rate_min + MICROCHANNEL.flow_rate_max),
        MICROCHANNEL.flow_rate_max,
    )
    UTILIZATIONS = (0.0, 0.5, 0.93)
    TMAX = (
        (76.569631694685, 87.17270268625784, 96.47650745898518),
        (69.73645410004461, 75.96548564823921, 81.44433066766233),
        (68.14179233625488, 73.37902881773307, 77.96545842482617),
    )

    def test_steady_tmax_at_flow(self):
        system = ThermalSystem(2, CoolingKind.LIQUID)
        model = PowerModel(system.stack, leakage=LeakageModel())
        got = tuple(
            tuple(
                fig5._steady_tmax_at_flow(system, model, u, flow)
                for u in self.UTILIZATIONS
            )
            for flow in self.FLOWS
        )
        assert got == self.TMAX


@pytest.mark.slow
class TestFourLayerComparison:
    def test_4layer_needs_higher_settings(self):
        """Figure 5: at the same workload the 4-layer system needs at
        least the 2-layer system's setting (less per-cavity flow, more
        stacked heat)."""
        utils = (0.0, 0.5, 0.9)
        rows2 = fig5.run(2, utilizations=utils, include_continuous=False)
        rows4 = fig5.run(4, utilizations=utils, include_continuous=False)
        for r2, r4 in zip(rows2, rows4):
            assert r4["required_setting"] >= r2["required_setting"]


@pytest.mark.slow
class TestContinuousCurve:
    def test_continuous_flow_below_discrete(self):
        """The continuous minimum (circles in Figure 5) never exceeds
        the discrete staircase above it."""
        rows = fig5.run(2, utilizations=(0.2, 0.6, 0.9), include_continuous=True)
        for row in rows:
            if np.isfinite(row["continuous_flow_mlmin"]):
                assert (
                    row["continuous_flow_mlmin"]
                    <= row["discrete_flow_mlmin"] * 1.001
                )
