"""The flow-rate controller: proactive LUT control with hysteresis."""

import numpy as np
import pytest

from repro.control.controller import FlowRateController
from repro.control.flow_table import FlowRateTable
from repro.errors import ControlError
from repro.pump.laing_ddc import PumpState, laing_ddc


def toy_steady_tmax(setting: int, utilization: float) -> float:
    return 65.0 + 30.0 * utilization - 4.0 * setting


@pytest.fixture
def table():
    pump = laing_ddc(3)
    return FlowRateTable.characterize(
        steady_tmax_batch=lambda k, utils: np.array(
            [toy_steady_tmax(k, float(u)) for u in utils]
        ),
        n_settings=pump.n_settings,
        per_cavity_flows=pump.per_cavity_flows(),
        utilizations=np.linspace(0.0, 1.0, 11),
        target=80.0,
    )


def make_controller(table, start=4, hysteresis=2.0, minimum=0):
    state = PumpState(laing_ddc(3), current_index=start)
    return FlowRateController(table, state, hysteresis=hysteresis, minimum_setting=minimum)


class TestUpshift:
    def test_upshift_on_hot_forecast(self, table):
        ctrl = make_controller(table, start=0)
        # At setting 0, 95 degC maps to a high utilization needing more flow.
        commanded = ctrl.update(95.0, now=0.0)
        assert commanded > 0
        assert ctrl.upshift_count == 1

    def test_upshift_is_immediate_no_hysteresis(self, table):
        ctrl = make_controller(table, start=0, hysteresis=5.0)
        assert ctrl.update(95.0, now=0.0) > 0


class TestDownshift:
    def test_downshift_requires_margin(self, table):
        """The paper's rule: no down-switch until the prediction is at
        least 2 degC below the boundary temperature."""
        ctrl = make_controller(table, start=4)
        # Find the boundary between settings 3 and 4 as observed at 4.
        boundary = table.boundaries(4)[3]
        # Just below the boundary: required is 3, but margin not met.
        ctrl.update(boundary - 1.0, now=0.0)
        assert ctrl.pump_state.commanded_index == 4
        assert ctrl.downshift_count == 0
        # Clearly below the boundary minus hysteresis: now it drops.
        ctrl.update(boundary - 2.5, now=1.0)
        assert ctrl.pump_state.commanded_index < 4
        assert ctrl.downshift_count == 1

    def test_no_oscillation_at_boundary(self, table):
        """Dithering +-0.5 degC around a boundary must not produce
        command oscillation (the rationale for the 2 degC rule)."""
        ctrl = make_controller(table, start=4)
        boundary = table.boundaries(4)[3]
        commands = []
        for k in range(20):
            t = boundary + (0.5 if k % 2 == 0 else -0.5)
            commands.append(ctrl.update(t, now=k * 0.1))
        assert len(set(commands)) == 1  # Never moved.


class TestMinimumSetting:
    def test_floor_respected_on_downshift(self, table):
        ctrl = make_controller(table, start=4, minimum=2)
        ctrl.update(40.0, now=0.0)  # Very cold forecast.
        assert ctrl.pump_state.commanded_index == 2

    def test_floor_respected_from_start(self, table):
        ctrl = make_controller(table, start=1, minimum=3)
        ctrl.update(40.0, now=0.0)
        assert ctrl.pump_state.commanded_index == 3


class TestTransitionInteraction:
    def test_observed_setting_lags_command(self, table):
        """Between command and completion the observed setting is the
        old one; the controller must keep translating temperatures at
        the flow the coolant actually has."""
        ctrl = make_controller(table, start=0)
        ctrl.update(95.0, now=0.0)
        assert ctrl.pump_state.current_index == 0  # Still transitioning.
        ctrl.update(95.0, now=0.1)
        assert ctrl.pump_state.current_index == 0
        ctrl.update(95.0, now=0.35)  # Transition (0.3 s) complete.
        assert ctrl.pump_state.current_index > 0


class TestValidation:
    def test_rejects_negative_hysteresis(self, table):
        with pytest.raises(ControlError):
            make_controller(table, hysteresis=-1.0)

    def test_rejects_bad_minimum(self, table):
        with pytest.raises(ControlError):
            make_controller(table, minimum=9)

    def test_rejects_mismatched_pump(self, table):
        from repro.pump.laing_ddc import PumpModel

        small_pump = PumpModel(settings_lh=(75.0, 150.0), n_cavities=3)
        with pytest.raises(ControlError):
            FlowRateController(table, PumpState(small_pump))
