"""SPRT divergence detection on prediction residuals."""

import numpy as np
import pytest

from repro.control.sprt import SprtDetector
from repro.errors import ControlError


class TestDetection:
    def test_false_alarm_rate_tracks_alpha(self):
        """The restart rule makes this a repeated SPRT: expected false
        alarms ~ (completed tests) * alpha, so over 3000 null samples
        at alpha=1% a handful of alarms is correct — and tightening
        alpha by 10x must reduce them accordingly."""
        rng = np.random.default_rng(0)
        det = SprtDetector(sigma=1.0, shift=2.0, alpha=0.01, beta=0.01)
        alarms = sum(det.update(float(r)) for r in rng.normal(0, 1, 3000))
        assert alarms <= 10

        rng = np.random.default_rng(0)
        strict = SprtDetector(sigma=1.0, shift=3.0, alpha=0.001, beta=0.001)
        strict_alarms = sum(
            strict.update(float(r)) for r in rng.normal(0, 1, 3000)
        )
        assert strict_alarms <= 1

    def test_alarms_on_positive_shift(self):
        rng = np.random.default_rng(1)
        det = SprtDetector(sigma=1.0, shift=2.0)
        alarmed = False
        for r in rng.normal(3.0, 1.0, 100):
            if det.update(float(r)):
                alarmed = True
                break
        assert alarmed

    def test_alarms_on_negative_shift(self):
        rng = np.random.default_rng(2)
        det = SprtDetector(sigma=1.0, shift=2.0)
        alarmed = any(det.update(float(r)) for r in rng.normal(-3.0, 1.0, 100))
        assert alarmed

    def test_detection_is_fast(self):
        """A 3-sigma shift should be flagged within a handful of
        samples (the paper needs fast, cheap detection)."""
        rng = np.random.default_rng(3)
        det = SprtDetector(sigma=1.0, shift=2.0)
        count = 0
        for r in rng.normal(3.0, 1.0, 1000):
            count += 1
            if det.update(float(r)):
                break
        assert count <= 10

    def test_alarm_resets_state(self):
        det = SprtDetector(sigma=1.0, shift=2.0)
        for _ in range(100):
            if det.update(5.0):
                break
        assert det.alarm_count == 1
        # After the alarm the test restarted: small residuals are fine.
        assert not det.update(0.0)

    def test_accepting_h0_restarts(self):
        """Accepting H0 restarts the test, so a long null stretch builds
        no negative evidence that would delay a later alarm: a fresh
        detector flags a 3-sigma residual on the second sample, and one
        that has seen 1000 zero residuals on the third at the latest."""
        det = SprtDetector(sigma=1.0, shift=2.0)
        assert not any(det.update(0.0) for _ in range(1000))
        assert det.alarm_count == 0
        assert [det.update(3.0) for _ in range(3)].count(True) == 1
        assert det.alarm_count == 1


class TestValidation:
    def test_rejects_bad_sigma(self):
        with pytest.raises(ControlError):
            SprtDetector(sigma=0.0)

    def test_rejects_bad_shift(self):
        with pytest.raises(ControlError):
            SprtDetector(sigma=1.0, shift=0.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ControlError):
            SprtDetector(sigma=1.0, alpha=1.5)

    def test_rejects_non_finite_residual(self):
        det = SprtDetector(sigma=1.0)
        with pytest.raises(ControlError):
            det.update(float("nan"))
