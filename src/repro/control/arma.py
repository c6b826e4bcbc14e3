"""ARMA(p, q) fitting and multi-step forecasting.

The paper forecasts the maximum chip temperature 500 ms ahead from a
100 ms-sampled history using an ARMA model: "ARMA forecasts the future
value of the time-series signal based on the recent history ...
therefore we do not require an offline analysis."

Fitting uses the Hannan-Rissanen two-stage procedure (numpy):

1. fit a long autoregression by least squares and take its residuals
   as innovation estimates;
2. regress the series on its own lags and the lagged residuals to get
   the ARMA coefficients.

Forecasts recurse the difference equation with future innovations set
to zero (their conditional mean). That recursion runs every control
interval, so it is a Python-float loop over lists, which rounds exactly
as a numpy float64 loop in the same order would (same IEEE operations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ControlError
from repro.telemetry import metrics as _metrics

# Innovations passes, full or one-sample extensions.
_PASSES = _metrics.counter("control.forecast.passes")


@dataclass(frozen=True)
class ArmaModel:
    """A fitted ARMA(p, q) model.

    The model describes ``y_t - mu = sum_i phi_i (y_{t-i} - mu) +
    e_t + sum_j theta_j e_{t-j}``.

    Models are values: two fits of the same series compare and hash equal.

    Attributes
    ----------
    ar:
        AR coefficients phi (length p), stored as a tuple of floats.
    ma:
        MA coefficients theta (length q), stored as a tuple of floats.
    mean:
        The series mean mu removed before fitting.
    sigma:
        Standard deviation of the fit residuals (used by the SPRT).
    """

    ar: tuple[float, ...]
    ma: tuple[float, ...]
    mean: float
    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "ar", tuple(float(c) for c in self.ar))
        object.__setattr__(self, "ma", tuple(float(c) for c in self.ma))

    @property
    def p(self) -> int:
        """AR order."""
        return len(self.ar)

    @property
    def q(self) -> int:
        """MA order."""
        return len(self.ma)

    @classmethod
    def fit(cls, series: np.ndarray, p: int = 3, q: int = 2) -> "ArmaModel":
        """Fit by Hannan-Rissanen. Needs ``len(series) >= 4*(p+q) + 10``.

        Raises :class:`ControlError` when the series is too short or
        degenerate (e.g. constant).
        """
        series = np.asarray(series, dtype=float)
        if series.ndim != 1:
            raise ControlError("series must be one-dimensional")
        if p < 1 or q < 0:
            raise ControlError("require p >= 1 and q >= 0")
        n = len(series)
        min_n = 4 * (p + q) + 10
        if n < min_n:
            raise ControlError(f"need at least {min_n} samples to fit ARMA({p},{q})")
        mean = float(series.mean())
        y = series - mean
        if float(np.abs(y).max()) < 1.0e-12:
            # A constant series: the zero model predicts the mean exactly.
            return cls(ar=np.zeros(p), ma=np.zeros(q), mean=mean, sigma=1.0e-9)

        # Stage 1: long AR for innovation estimates.
        long_order = min(max(2 * (p + q), 6), n // 3)
        residuals = _ar_residuals(y, long_order)

        # Stage 2: regression on p AR lags and q MA lags.
        start = max(p, q + long_order)
        design = np.column_stack(
            [y[start - i : n - i] for i in range(1, p + 1)]
            + [residuals[start - j : n - j] for j in range(1, q + 1)]
        )
        target = y[start:]
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        resid = target - design @ coef
        sigma = float(resid.std()) if len(resid) > 1 else 1.0e-9
        return cls(ar=coef[:p], ma=coef[p:], mean=mean, sigma=max(sigma, 1.0e-9))

    def innovations(self, series: Sequence[float]) -> tuple[list[float], list[float]]:
        """The demeaned series and its one-step-ahead innovations.

        The first ``max(p, q)`` innovations are zero (insufficient lags).
        """
        ar, ma, mean = self.ar, self.ma, self.mean
        y = [float(v) - mean for v in series]
        e = [0.0] * len(y)
        # _one_step inlined: this pass reruns over the whole window on
        # every sample once the window slides.
        for t in range(max(len(ar), len(ma)), len(y)):
            pred = 0.0
            i = t
            for c in ar:
                i -= 1
                pred += c * y[i]
            i = t
            for c in ma:
                i -= 1
                pred += c * e[i]
            e[t] = y[t] - pred
        _PASSES.inc()
        return y, e

    def extend_innovations(self, y: list[float], e: list[float], value: float) -> None:
        """Append one sample to a demeaned series ``y`` and its
        innovations ``e`` from :meth:`innovations`, in place.

        The new innovation reads only the prefix, so the lists equal a
        fresh :meth:`innovations` over the longer series, bitwise.
        """
        t = len(y)
        y.append(float(value) - self.mean)
        innovation = 0.0  # as in innovations: zero until every lag exists
        if t >= max(self.p, self.q):
            innovation = y[t] - _one_step(self.ar, self.ma, y, e, t)
        e.append(innovation)
        _PASSES.inc()

    def residuals(self, series: Sequence[float]) -> np.ndarray:
        """One-step-ahead innovation sequence over a series."""
        return np.asarray(self.innovations(series)[1])

    def forecast_from(self, y: list[float], e: list[float], steps: int) -> float:
        """Forecast ``steps`` samples past the end of a demeaned series
        ``y`` with known innovations ``e`` (see :meth:`innovations`);
        future innovations are zero."""
        if steps < 1:
            raise ControlError("steps must be >= 1")
        lags = max(self.p, self.q)
        if len(y) < lags:
            raise ControlError("series shorter than the model order")
        # The recursion reads only the last ``lags`` values of each list
        # (the slices are fresh lists, extended below).
        y, e = y[len(y) - lags:], e[len(e) - lags:]
        for _ in range(steps):
            y.append(_one_step(self.ar, self.ma, y, e, len(y)))
            e.append(0.0)
        return y[-1] + self.mean

    def forecast(self, series: Sequence[float], steps: int) -> float:
        """Forecast the value ``steps`` samples ahead of the series end."""
        return self.forecast_from(*self.innovations(series), steps)


def _one_step(ar: tuple, ma: tuple, y: list[float], e: list[float], t: int) -> float:
    """Predict y[t] (demeaned) from lags strictly before t: the AR terms
    for lags 1..p, then the MA terms for lags 1..q, summed from 0.0."""
    pred = 0.0
    i = t
    for c in ar:
        i -= 1
        pred += c * y[i]
    j = t
    for c in ma:
        j -= 1
        pred += c * e[j]
    return pred


def _ar_residuals(y: np.ndarray, order: int) -> np.ndarray:
    """Residuals of a least-squares AR(order) fit (stage 1 of H-R)."""
    n = len(y)
    if n <= order + 1:
        raise ControlError("series too short for the long AR stage")
    design = np.column_stack([y[order - i - 1 : n - i - 1] for i in range(order)])
    target = y[order:]
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    residuals = np.zeros(n)
    residuals[order:] = target - design @ coef
    return residuals
