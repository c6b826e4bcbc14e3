"""The Laing DDC 12 V DC pump model (Section III-B, Figure 3).

The paper drives all microchannels from a single impeller pump with
five discrete flow-rate settings (Figure 3's x axis: 75-375 l/h). Pump
power "increases quadratically with the increase in flow rate"; Figure 3
shows roughly 3.7 W at the lowest and 21 W at the highest setting. The
total flow is divided equally among the cavities and, within a cavity,
among the channels, after a global 50 % derating for pump inefficiency
and microchannel pressure-drop losses. Switching settings takes the
impeller 250-300 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units
from repro.constants import CONTROL
from repro.errors import ConfigurationError

LAING_DDC_SETTINGS_LH: tuple[float, ...] = (75.0, 150.0, 225.0, 300.0, 375.0)
"""Figure 3's five pump flow-rate settings, litres/hour."""

_POWER_FLOOR_W = 3.0
"""Pump electrical power at zero flow extrapolation, W (fit to Figure 3)."""

_POWER_SPAN_W = 18.0
"""Quadratic power span so P(375 l/h) = 21 W (fit to Figure 3)."""


@dataclass(frozen=True)
class FlowSetting:
    """One discrete pump operating point.

    Attributes
    ----------
    index:
        Position in the setting ladder (0 = lowest).
    pump_flow:
        Total pump volumetric flow, m^3/s.
    per_cavity_flow:
        Flow delivered to each cavity after derating, m^3/s.
    power:
        Pump electrical power at this setting, W.
    """

    index: int
    pump_flow: float
    per_cavity_flow: float
    power: float


class PumpModel:
    """A pump with discrete settings feeding ``n_cavities`` equally.

    Parameters
    ----------
    settings_lh:
        Pump flow-rate settings in litres/hour, ascending.
    n_cavities:
        Number of interlayer cavities sharing the flow (3 for the
        2-layer stack, 5 for the 4-layer stack).
    efficiency:
        Fraction of nominal flow that reaches the channels (paper: 0.5,
        a "global reduction in the flow rate by 50 %").
    transition_time:
        Seconds for a setting change to take effect (paper: 250-300 ms).
    power_floor, power_span:
        Quadratic power fit P(f) = floor + span * (f / f_max)^2, W.
    """

    def __init__(
        self,
        settings_lh: tuple[float, ...] = LAING_DDC_SETTINGS_LH,
        n_cavities: int = 3,
        efficiency: float = 0.5,
        transition_time: float = CONTROL.pump_transition_time,
        power_floor: float = _POWER_FLOOR_W,
        power_span: float = _POWER_SPAN_W,
    ) -> None:
        if not settings_lh:
            raise ConfigurationError("pump needs at least one flow setting")
        if list(settings_lh) != sorted(settings_lh):
            raise ConfigurationError("pump settings must be ascending")
        if any(s <= 0.0 for s in settings_lh):
            raise ConfigurationError("pump settings must be positive")
        if n_cavities <= 0:
            raise ConfigurationError("n_cavities must be positive")
        if not 0.0 < efficiency <= 1.0:
            raise ConfigurationError("efficiency must be in (0, 1]")
        if transition_time < 0.0:
            raise ConfigurationError("transition time must be non-negative")
        self.n_cavities = n_cavities
        self.efficiency = efficiency
        self.transition_time = transition_time
        self._f_max_lh = settings_lh[-1]
        self._power_floor = power_floor
        self._power_span = power_span
        self.settings: tuple[FlowSetting, ...] = tuple(
            FlowSetting(
                index=i,
                pump_flow=units.litres_per_hour(f_lh),
                per_cavity_flow=self._derated_cavity_flow(f_lh),
                power=self._power_at(f_lh),
            )
            for i, f_lh in enumerate(settings_lh)
        )

    def _derated_cavity_flow(self, flow_lh: float) -> float:
        return units.litres_per_hour(flow_lh) * self.efficiency / self.n_cavities

    def _power_at(self, flow_lh: float) -> float:
        return self._power_floor + self._power_span * (flow_lh / self._f_max_lh) ** 2

    # --- queries ---------------------------------------------------------

    @property
    def n_settings(self) -> int:
        """Number of discrete settings."""
        return len(self.settings)

    @property
    def max_setting(self) -> FlowSetting:
        """The highest (worst-case) setting."""
        return self.settings[-1]

    def setting(self, index: int) -> FlowSetting:
        """Setting by ladder index (0 = lowest)."""
        if not 0 <= index < len(self.settings):
            raise ConfigurationError(
                f"pump setting index {index} out of range 0..{len(self.settings) - 1}"
            )
        return self.settings[index]

    def per_cavity_flows(self) -> list[float]:
        """Per-cavity flows (m^3/s) across the ladder (Figure 3 series)."""
        return [s.per_cavity_flow for s in self.settings]

    def powers(self) -> list[float]:
        """Pump powers (W) across the ladder (Figure 3 right axis)."""
        return [s.power for s in self.settings]


@dataclass
class PumpState:
    """Runtime pump state with the paper's 250-300 ms transition delay.

    A setting change requested at time ``t`` becomes effective at
    ``t + transition_time``; until then the pump keeps delivering the
    old flow. Electrical power follows the *commanded* setting from the
    moment of the request (the impeller spins up immediately).
    """

    pump: PumpModel
    current_index: int = 0
    _pending_index: int = field(default=-1, init=False)
    _pending_effective_at: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if not 0 <= self.current_index < self.pump.n_settings:
            raise ConfigurationError("initial pump setting out of range")

    @property
    def commanded_index(self) -> int:
        """The most recently commanded setting index."""
        if self._pending_index >= 0:
            return self._pending_index
        return self.current_index

    def command(self, index: int, now: float) -> None:
        """Request a setting change at time ``now`` (seconds)."""
        if not 0 <= index < self.pump.n_settings:
            raise ConfigurationError(f"pump setting index {index} out of range")
        if index == self.commanded_index:
            return
        self._pending_index = index
        self._pending_effective_at = now + self.pump.transition_time

    def advance(self, now: float) -> None:
        """Apply any pending transition whose delay has elapsed."""
        if self._pending_index >= 0 and now >= self._pending_effective_at:
            self.current_index = self._pending_index
            self._pending_index = -1

    def electrical_power(self) -> float:
        """Instantaneous pump electrical power, W (commanded setting)."""
        return self.pump.setting(self.commanded_index).power


def laing_ddc(n_cavities: int) -> PumpModel:
    """The paper's pump for a stack with ``n_cavities`` cavities."""
    return PumpModel(n_cavities=n_cavities)
