"""The Laing DDC pump model (Figure 3) and its runtime state."""

import pytest

from repro import units
from repro.errors import ConfigurationError
from repro.pump.laing_ddc import (
    LAING_DDC_SETTINGS_LH,
    PumpModel,
    PumpState,
    laing_ddc,
)


class TestFigure3Values:
    def test_five_settings(self):
        assert LAING_DDC_SETTINGS_LH == (75.0, 150.0, 225.0, 300.0, 375.0)

    def test_per_cavity_flows_2layer(self):
        """Figure 3's 2-layer series: ~208 to ~1042 ml/min per cavity."""
        pump = laing_ddc(n_cavities=3)
        flows = [units.to_ml_per_minute(f) for f in pump.per_cavity_flows()]
        assert flows[0] == pytest.approx(208.33, rel=1e-3)
        assert flows[-1] == pytest.approx(1041.67, rel=1e-3)

    def test_per_cavity_flows_4layer(self):
        """Figure 3's 4-layer series: ~125 to ~625 ml/min per cavity."""
        pump = laing_ddc(n_cavities=5)
        flows = [units.to_ml_per_minute(f) for f in pump.per_cavity_flows()]
        assert flows[0] == pytest.approx(125.0, rel=1e-3)
        assert flows[-1] == pytest.approx(625.0, rel=1e-3)

    def test_per_cavity_range_spans_table1(self):
        """Table I gives 0.1-1 l/min per cavity; the 2-layer ladder
        covers within 2x of both ends."""
        pump = laing_ddc(n_cavities=3)
        lo = units.to_ml_per_minute(pump.settings[0].per_cavity_flow) / 1000.0
        hi = units.to_ml_per_minute(pump.max_setting.per_cavity_flow) / 1000.0
        assert 0.1 <= lo * 2
        assert hi <= 1.1

    def test_power_endpoints(self):
        """Figure 3's right axis: ~3.7 W lowest, 21 W highest."""
        pump = laing_ddc(n_cavities=3)
        assert pump.settings[0].power == pytest.approx(3.72, rel=1e-3)
        assert pump.max_setting.power == pytest.approx(21.0, rel=1e-3)

    def test_power_quadratic_in_flow(self):
        """'The pump power increases quadratically with the increase in
        flow rate': second differences of P(f^2) vanish."""
        pump = laing_ddc(n_cavities=3)
        flows = [s.pump_flow for s in pump.settings]
        powers = pump.powers()
        # P = a + b*f^2: check P against the exact quadratic form.
        f_max = flows[-1]
        for f, p in zip(flows, powers):
            assert p == pytest.approx(3.0 + 18.0 * (f / f_max) ** 2, rel=1e-9)

    def test_power_strictly_increasing(self):
        powers = laing_ddc(3).powers()
        assert all(a < b for a, b in zip(powers, powers[1:]))

    def test_efficiency_derating_50pct(self):
        """'a global reduction in the flow rate by 50%'."""
        pump = laing_ddc(n_cavities=3)
        nominal = pump.settings[0].pump_flow / 3
        assert pump.settings[0].per_cavity_flow == pytest.approx(nominal * 0.5)


class TestPumpModelValidation:
    def test_rejects_unsorted_settings(self):
        with pytest.raises(ConfigurationError):
            PumpModel(settings_lh=(150.0, 75.0))

    def test_rejects_empty_settings(self):
        with pytest.raises(ConfigurationError):
            PumpModel(settings_lh=())

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ConfigurationError):
            PumpModel(efficiency=0.0)
        with pytest.raises(ConfigurationError):
            PumpModel(efficiency=1.5)

    def test_rejects_bad_cavities(self):
        with pytest.raises(ConfigurationError):
            PumpModel(n_cavities=0)

    def test_setting_index_bounds(self):
        pump = laing_ddc(3)
        with pytest.raises(ConfigurationError):
            pump.setting(5)
        with pytest.raises(ConfigurationError):
            pump.setting(-1)


class TestPumpState:
    def test_transition_delay(self):
        """A commanded change only takes effect after 300 ms."""
        state = PumpState(laing_ddc(3), current_index=0)
        state.command(3, now=1.0)
        state.advance(1.1)
        assert state.current_index == 0  # Still transitioning.
        assert state.commanded_index == 3
        state.advance(1.31)
        assert state.current_index == 3

    def test_power_follows_command_immediately(self):
        state = PumpState(laing_ddc(3), current_index=0)
        state.command(4, now=0.0)
        assert state.electrical_power() == pytest.approx(21.0, rel=1e-3)

    def test_same_command_is_noop(self):
        state = PumpState(laing_ddc(3), current_index=2)
        state.command(2, now=0.0)
        state.advance(10.0)
        assert state.current_index == 2

    def test_recommand_during_transition(self):
        state = PumpState(laing_ddc(3), current_index=0)
        state.command(4, now=0.0)
        state.command(1, now=0.1)  # Changed mind mid-transition.
        state.advance(0.41)
        assert state.current_index == 1

    def test_rejects_bad_initial(self):
        with pytest.raises(ConfigurationError):
            PumpState(laing_ddc(3), current_index=9)

    def test_rejects_bad_command(self):
        state = PumpState(laing_ddc(3))
        with pytest.raises(ConfigurationError):
            state.command(7, now=0.0)
