"""Naive (numpy-scalar) reference implementation of the ARMA recursion.

These are line-for-line retained copies of the ``residuals`` /
``_one_step`` / ``forecast`` methods that indexed numpy arrays one
float64 scalar at a time, before the recursion became a Python-float
kernel over lists. The kernel suite (``test_arma_kernel.py``) pins the
kernel to these references *exactly* (``==``, not approx): numpy
float64 and Python float arithmetic are the same IEEE operations, so
any change to the accumulation order shows up as a hard failure.
"""

from __future__ import annotations

import numpy as np

from repro.control.arma import ArmaModel
from repro.errors import ControlError


class NaiveArma:
    """The reference recursion over a fitted model's coefficients."""

    def __init__(self, model: ArmaModel) -> None:
        self.ar = np.asarray(model.ar, dtype=float)
        self.ma = np.asarray(model.ma, dtype=float)
        self.mean = model.mean

    @property
    def p(self) -> int:
        return len(self.ar)

    @property
    def q(self) -> int:
        return len(self.ma)

    def residuals(self, series: np.ndarray) -> np.ndarray:
        """One-step-ahead innovation sequence over a series.

        The first ``max(p, q)`` entries are zero (insufficient lags).
        """
        series = np.asarray(series, dtype=float)
        y = series - self.mean
        n = len(y)
        e = np.zeros(n)
        start = max(self.p, self.q)
        for t in range(start, n):
            pred = self._one_step(y, e, t)
            e[t] = y[t] - pred
        return e

    def _one_step(self, y: np.ndarray, e: np.ndarray, t: int) -> float:
        """Predict y[t] (demeaned) from lags strictly before t."""
        pred = 0.0
        for i in range(1, self.p + 1):
            if t - i >= 0:
                pred += self.ar[i - 1] * y[t - i]
        for j in range(1, self.q + 1):
            if t - j >= 0:
                pred += self.ma[j - 1] * e[t - j]
        return pred

    def forecast(self, series: np.ndarray, steps: int) -> float:
        """Forecast the value ``steps`` samples ahead of the series end.

        Future innovations are set to their conditional mean (zero);
        known innovations come from :meth:`residuals`.
        """
        if steps < 1:
            raise ControlError("steps must be >= 1")
        series = np.asarray(series, dtype=float)
        if len(series) < max(self.p, self.q):
            raise ControlError("series shorter than the model order")
        e = self.residuals(series)
        y = list(series - self.mean)
        e = list(e)
        for _ in range(steps):
            t = len(y)
            y_arr = np.asarray(y)
            e_arr = np.asarray(e)
            pred = self._one_step(y_arr, e_arr, t)
            y.append(pred)
            e.append(0.0)
        return float(y[-1] + self.mean)
