"""Sequential probability ratio test (SPRT) for predictor health.

Section IV: "we apply the sequential probability ratio test (SPRT) ...
a logarithmic likelihood test to decide whether the error between the
predicted series and measured series is diverging from zero — i.e., if
the predictor is no longer fitting the workload, the difference
function of the two time series would increase" (after Gross &
Humenik's nuclear-surveillance SPRT).

We run the classical two-sided Gaussian mean test on the one-step
prediction residuals: H0 says the residuals are N(0, sigma^2); H1 says
their mean has shifted by +/- m*sigma. The cumulative log-likelihood
ratio for the positive shift is

    LLR_t = sum_i (m/sigma^2) * (x_i - m/2)

and symmetrically for the negative shift. Crossing ln((1-beta)/alpha)
accepts H1 (drift detected -> re-fit the ARMA model); crossing
ln(beta/(1-alpha)) accepts H0 and restarts the test.
"""

from __future__ import annotations

import math

from repro.errors import ControlError


class SprtDetector:
    """Two-sided Gaussian SPRT on prediction residuals.

    Parameters
    ----------
    sigma:
        Residual standard deviation under H0 (from the ARMA fit).
    shift:
        Magnitude of the H1 mean shift, in multiples of sigma.
    alpha:
        False-alarm probability bound.
    beta:
        Missed-detection probability bound.
    """

    def __init__(
        self,
        sigma: float,
        shift: float = 2.0,
        alpha: float = 0.01,
        beta: float = 0.01,
    ) -> None:
        if sigma <= 0.0:
            raise ControlError("sigma must be positive")
        if shift <= 0.0:
            raise ControlError("shift must be positive")
        if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
            raise ControlError("alpha and beta must be in (0, 1)")
        self.sigma = sigma
        self.shift = shift
        self.alpha = alpha
        self.beta = beta
        self._upper = math.log((1.0 - beta) / alpha)
        self._lower = math.log(beta / (1.0 - alpha))
        self._llr_pos = 0.0
        self._llr_neg = 0.0
        self.alarm_count = 0

    def update(self, residual: float) -> bool:
        """Feed one residual; returns True when divergence is detected.

        On detection (either direction) both tests reset, so the caller
        can re-fit the predictor and continue monitoring.
        """
        if not math.isfinite(residual):
            raise ControlError("residual must be finite")
        mean_shift = self.shift * self.sigma
        weight = mean_shift / (self.sigma**2)
        self._llr_pos += weight * (residual - mean_shift / 2.0)
        self._llr_neg += weight * (-residual - mean_shift / 2.0)

        # Accepting H0 restarts the corresponding test.
        if self._llr_pos < self._lower:
            self._llr_pos = 0.0
        if self._llr_neg < self._lower:
            self._llr_neg = 0.0

        if self._llr_pos > self._upper or self._llr_neg > self._upper:
            self.reset()
            self.alarm_count += 1
            return True
        return False

    def reset(self) -> None:
        """Restart both one-sided tests."""
        self._llr_pos = 0.0
        self._llr_neg = 0.0
