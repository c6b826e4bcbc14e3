"""The variable-flow controller (Section IV, "Liquid Flow Rate Control").

"The input to the controller is the predicted maximum temperature, and
the output is the flow rate for the next interval." The controller
looks the predicted T_max up in the characterized table, commands the
minimum sufficient pump setting, and applies the paper's oscillation
guard: "once we switch to a higher flow rate setting, we do not
decrease the flow rate until the predicted Tmax is at least 2 degC
lower than the boundary temperature between two flow rate settings."

Because the impeller needs 250-300 ms to change the flow while the
thermal time constant is under 100 ms, decisions are made on the
*forecast* temperature (500 ms ahead), so the new flow is in place when
the temperature actually gets there (proactive, not reactive).
"""

from __future__ import annotations

from repro.constants import CONTROL
from repro.control.flow_table import FlowRateTable
from repro.errors import ControlError
from repro.pump.laing_ddc import PumpState
from repro.registry import ControllerContext, register_controller


class FlowRateController:
    """Look-up-table flow controller with down-switch hysteresis.

    Parameters
    ----------
    table:
        The characterized temperature -> setting table.
    pump_state:
        Runtime pump state (owns the transition delay).
    hysteresis:
        Down-switch margin, K (paper: 2 degC).
    """

    #: Proactive: acts on the ARMA forecast so the 250-300 ms impeller
    #: transition completes before the temperature arrives.
    reacts_to_forecast = True

    def __init__(
        self,
        table: FlowRateTable,
        pump_state: PumpState,
        hysteresis: float = CONTROL.hysteresis,
        minimum_setting: int = 0,
    ) -> None:
        if hysteresis < 0.0:
            raise ControlError("hysteresis must be non-negative")
        if table.char.n_settings != pump_state.pump.n_settings:
            raise ControlError("table and pump have different setting counts")
        if not 0 <= minimum_setting < pump_state.pump.n_settings:
            raise ControlError("minimum_setting outside the setting ladder")
        self.table = table
        self.pump_state = pump_state
        self.hysteresis = hysteresis
        self.minimum_setting = minimum_setting
        self.upshift_count = 0
        self.downshift_count = 0

    def update(self, predicted_tmax: float, now: float) -> int:
        """One control step; returns the commanded setting index.

        Parameters
        ----------
        predicted_tmax:
            The forecast maximum temperature (degC) from the ARMA
            predictor, ``horizon`` ahead of ``now``.
        now:
            Current time, s (drives the pump transition bookkeeping).
        """
        self.pump_state.advance(now)
        observed = self.pump_state.current_index
        commanded = self.pump_state.commanded_index

        required = max(
            self.table.required_setting(predicted_tmax, observed),
            self.minimum_setting,
        )
        if required > commanded:
            self.pump_state.command(required, now)
            self.upshift_count += 1
        elif required < commanded:
            # The paper's 2 degC rule: only step down when the predicted
            # T_max clears the boundary with margin. Asking the table
            # with the margin added implements exactly that: the answer
            # drops below `commanded` only when predicted_tmax is at
            # least `hysteresis` below the boundary temperature.
            guarded = max(
                self.table.required_setting(
                    predicted_tmax + self.hysteresis, observed
                ),
                self.minimum_setting,
            )
            if guarded < commanded:
                self.pump_state.command(guarded, now)
                self.downshift_count += 1
        return self.pump_state.commanded_index


@register_controller(
    "lut",
    aliases=("table",),
    description="The paper's controller: ARMA forecast + characterized "
    "look-up table + down-switch hysteresis (config fields "
    "'hysteresis' and 'characterization_guard' shape it)",
    traits={"needs_flow_table": True},
)
def _build_lut(ctx: ControllerContext) -> FlowRateController:
    table = ctx.cache.table(ctx.system, ctx.config)
    floor = ctx.cache.floor(ctx.system, ctx.config)
    return FlowRateController(
        table,
        ctx.pump_state,
        hysteresis=ctx.config.hysteresis,
        minimum_setting=floor,
    )
