"""Maximum-temperature forecasting: ARMA + SPRT-triggered re-fitting.

This is the "Monitor Temperature / Forecast Maximum Temperature" box of
the paper's Figure 4. The forecaster consumes the per-sample maximum
temperature (100 ms sampling) and predicts 500 ms ahead (5 steps), so
the flow-rate controller can command the pump *before* the 250-300 ms
impeller transition would otherwise cause under-/over-cooling.

"If the trend of the maximum temperature signal changes and the
predictor cannot forecast accurately, we reconstruct the ARMA
predictor, and use the existing model until the new one is ready":
on an SPRT alarm we re-fit from the most recent window; until enough
history exists the forecaster falls back to persistence (last value).
"""

from __future__ import annotations

import math
from collections import deque

from repro.constants import CONTROL
from repro.control.arma import ArmaModel
from repro.control.sprt import SprtDetector
from repro.errors import ControlError
from repro.registry import ForecasterContext, ParamSpec, register_forecaster
from repro.telemetry import metrics as _metrics

_REFITS = _metrics.counter("control.forecast.refits")  # reason=initial|sprt
_REFIT_FAILURES = _metrics.counter("control.forecast.refit_failures")
_REBUILDS = _metrics.counter("control.forecast.rebuilds")  # full innovations passes


class TemperatureForecaster:
    """Proactive maximum-temperature predictor.

    Parameters
    ----------
    horizon_steps:
        Forecast lead in samples (paper: 500 ms / 100 ms = 5).
    order:
        ARMA orders (p, q).
    window:
        Samples of history used for (re-)fitting.
    min_history:
        Samples before the first fit; persistence is used meanwhile.
    sprt_shift, sprt_alpha, sprt_beta:
        SPRT configuration (see :class:`SprtDetector`).

    Cost per observed sample with a fitted model, in :meth:`observe`:
    while the history window fills and the model is unchanged, one new
    innovation, O(p + q); after a refit, and on every sample once the
    window slides (dropping the oldest sample restarts the recursion),
    a full innovations pass over the window, O(window * (p + q)). Both
    give the same innovations bitwise. The SPRT's one-step and
    :meth:`predict`'s horizon forecasts recurse from the kept
    innovations in O(horizon * (p + q)). A refit (initial, or on an
    SPRT alarm) adds one Hannan-Rissanen least-squares fit.
    """

    def __init__(
        self,
        horizon_steps: int = int(round(CONTROL.forecast_horizon / CONTROL.sampling_interval)),
        order: tuple[int, int] = (3, 2),
        window: int = 120,
        min_history: int = 40,
        sprt_shift: float = 3.0,
        sprt_alpha: float = 0.001,
        sprt_beta: float = 0.001,
    ) -> None:
        if horizon_steps < 1:
            raise ControlError("horizon must be at least one step")
        p, q = order
        if min_history < 4 * (p + q) + 10:
            raise ControlError("min_history too small for the ARMA order")
        if window < min_history:
            raise ControlError("window must be >= min_history")
        self.horizon_steps = horizon_steps
        self.order = order
        self.window = window
        self.min_history = min_history
        self._sprt_params = {"shift": sprt_shift, "alpha": sprt_alpha, "beta": sprt_beta}
        self._history: deque[float] = deque(maxlen=window)
        # Running window extremes for the predict clamp: monotone deques
        # of (sample number, value), the oldest surviving extreme first.
        self._observed = 0
        self._lows: deque[tuple[int, float]] = deque()
        self._highs: deque[tuple[int, float]] = deque()
        self._model: ArmaModel | None = None
        self._sprt: SprtDetector | None = None
        # The demeaned history and its innovations under _chain_model.
        self._y: list[float] = []
        self._e: list[float] = []
        self._chain_model: ArmaModel | None = None
        self.retrain_count = 0

    @property
    def model(self) -> ArmaModel | None:
        """The current ARMA model (None until enough history exists)."""
        return self._model

    def observe(self, value: float) -> None:
        """Feed one maximum-temperature sample.

        Updates the SPRT with the previous one-step prediction error,
        re-fits on alarms, and performs the initial fit when enough
        history has accumulated.
        """
        if not math.isfinite(value):
            raise ControlError("temperature sample must be finite")
        if self._sprt is not None:  # set with the model by _refit
            # The SPRT tests the last sample's one-step prediction error.
            residual = value - self._model.forecast_from(self._y, self._e, 1)
            if self._sprt.update(residual):
                self._refit("sprt")
        slides = len(self._history) == self.window
        value = float(value)
        self._history.append(value)
        self._track_extremes(value)
        if self._model is None and len(self._history) >= self.min_history:
            self._refit("initial")
        if self._model is None:
            return
        if self._model is self._chain_model and not slides:
            # Same model, same prefix: extend the innovations one step.
            self._model.extend_innovations(self._y, self._e, value)
        else:
            # A new model, or a slid window that restarts the chain.
            self._y, self._e = self._model.innovations(self._history)
            self._chain_model = self._model
            _REBUILDS.inc()

    def predict(self) -> float:
        """Forecast ``horizon_steps`` ahead of the last observation.

        Falls back to the last observed value while no model is fitted
        (including the very first samples).
        """
        if not self._history:
            raise ControlError("no observations yet")
        if self._model is None:
            return self._history[-1]
        forecast = self._model.forecast_from(self._y, self._e, self.horizon_steps)
        # Clamp to a physical band around the recent history; a rogue
        # unstable fit must not command absurd flow rates (np.clip order).
        lo = self._lows[0][1] - 20.0
        hi = self._highs[0][1] + 20.0
        return min(max(forecast, lo), hi)

    def _track_extremes(self, value: float) -> None:
        """Keep the window's min and max at the front of their deques.

        Samples are finite, so the running extremes equal ``min`` and
        ``max`` of the history, whatever the tie order (the clamp's
        20 K offset erases the sign of a zero)."""
        n = self._observed
        self._observed = n + 1
        oldest = n - self.window
        lows, highs = self._lows, self._highs
        while lows and lows[-1][1] >= value:
            lows.pop()
        lows.append((n, value))
        if lows[0][0] <= oldest:
            lows.popleft()
        while highs and highs[-1][1] <= value:
            highs.pop()
        highs.append((n, value))
        if highs[0][0] <= oldest:
            highs.popleft()

    def _refit(self, reason: str) -> None:
        p, q = self.order
        try:
            self._model = ArmaModel.fit(list(self._history), p=p, q=q)
        except ControlError:
            # Not enough (or degenerate) history: keep the old model.
            _REFIT_FAILURES.inc()
            return
        _REFITS.inc(reason=reason)
        self._sprt = SprtDetector(sigma=self._model.sigma, **self._sprt_params)
        self.retrain_count += 1


class PersistenceForecaster:
    """The naive predictor: tomorrow looks exactly like today.

    Forecasts the last observed maximum temperature, unchanged, at any
    horizon. Registered as ``"persistence"`` so ablations can quantify
    what the ARMA+SPRT machinery actually buys: a variable-flow run
    with the persistence forecaster is the "no forecasting" arm with
    everything else held equal.
    """

    retrain_count = 0  # There is no model to (re-)fit.

    def __init__(self) -> None:
        self._last: float | None = None

    def observe(self, value: float) -> None:
        """Remember the latest sample."""
        if not math.isfinite(value):
            raise ControlError("temperature sample must be finite")
        self._last = float(value)

    def predict(self) -> float:
        """The last observation, at any horizon."""
        if self._last is None:
            raise ControlError("no observations yet")
        return self._last


@register_forecaster(
    "arma",
    description="ARMA forecast with SPRT-triggered re-fitting (the "
    "paper's proactive predictor)",
    params=(
        ParamSpec("window", "int", default=120, minimum=1,
                  doc="samples of history used for (re-)fitting"),
        ParamSpec("min_history", "int", default=40, minimum=1,
                  doc="samples before the first fit (persistence until then)"),
        ParamSpec("sprt_shift", "float", default=3.0,
                  doc="detectable mean shift, in residual sigmas"),
    ),
)
def _build_arma(ctx: ForecasterContext, **params) -> TemperatureForecaster:
    return TemperatureForecaster(horizon_steps=ctx.horizon_steps, **params)


@register_forecaster(
    "persistence",
    aliases=("last-value",),
    description="Predicts the last observed maximum temperature "
    "(the no-forecasting ablation arm)",
)
def _build_persistence(ctx: ForecasterContext) -> PersistenceForecaster:
    return PersistenceForecaster()
