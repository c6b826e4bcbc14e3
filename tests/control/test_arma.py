"""ARMA fitting and forecasting (pure numpy Hannan-Rissanen)."""

import numpy as np
import pytest

from repro.control.arma import ArmaModel
from repro.errors import ControlError


def ar2_series(n, phi1=1.2, phi2=-0.4, sigma=0.1, seed=0):
    """A stable AR(2) process around a mean of 70."""
    rng = np.random.default_rng(seed)
    y = np.zeros(n)
    for t in range(2, n):
        y[t] = phi1 * y[t - 1] + phi2 * y[t - 2] + rng.normal(0, sigma)
    return y + 70.0


class TestFit:
    def test_recovers_ar_coefficients(self):
        series = ar2_series(2000)
        model = ArmaModel.fit(series, p=2, q=0)
        assert model.ar[0] == pytest.approx(1.2, abs=0.1)
        assert model.ar[1] == pytest.approx(-0.4, abs=0.1)

    def test_mean_estimated(self):
        series = ar2_series(1000)
        model = ArmaModel.fit(series, p=2, q=1)
        assert model.mean == pytest.approx(70.0, abs=1.0)

    def test_sigma_close_to_innovation_std(self):
        series = ar2_series(2000, sigma=0.1)
        model = ArmaModel.fit(series, p=3, q=1)
        assert model.sigma == pytest.approx(0.1, rel=0.3)

    def test_constant_series(self):
        model = ArmaModel.fit(np.full(100, 55.0), p=2, q=1)
        assert model.forecast(np.full(100, 55.0), steps=5) == pytest.approx(55.0)

    def test_too_short_raises(self):
        with pytest.raises(ControlError):
            ArmaModel.fit(np.ones(10), p=3, q=2)

    def test_bad_orders(self):
        with pytest.raises(ControlError):
            ArmaModel.fit(np.ones(100), p=0, q=0)

    def test_non_1d_rejected(self):
        with pytest.raises(ControlError):
            ArmaModel.fit(np.ones((10, 10)), p=1, q=0)


class TestForecast:
    def test_one_step_accuracy_on_ar2(self):
        """One-step predictions on a strongly serially correlated
        signal must beat persistence — the property the paper's
        forecasting relies on."""
        series = ar2_series(600, sigma=0.1)
        train, test = series[:400], series[400:]
        model = ArmaModel.fit(train, p=3, q=1)
        errors, persistence = [], []
        history = list(train)
        for value in test:
            pred = model.forecast(np.asarray(history), steps=1)
            errors.append(abs(pred - value))
            persistence.append(abs(history[-1] - value))
            history.append(value)
        assert np.mean(errors) < np.mean(persistence)

    def test_five_step_forecast_reasonable(self):
        """The paper predicts 500 ms (5 samples) ahead with error well
        below 1 degC on temperature-like signals."""
        series = ar2_series(600, sigma=0.05)
        model = ArmaModel.fit(series[:500], p=3, q=1)
        pred = model.forecast(series[:500], steps=5)
        assert abs(pred - series[504]) < 1.0

    def test_forecast_of_trend_extrapolates(self):
        t = np.arange(200, dtype=float)
        series = 60.0 + 0.05 * t
        model = ArmaModel.fit(series, p=2, q=0)
        pred = model.forecast(series, steps=5)
        assert pred > series[-1] - 0.01  # Must not lag a rising trend.

    def test_rejects_bad_steps(self):
        series = ar2_series(200)
        model = ArmaModel.fit(series, p=2, q=1)
        with pytest.raises(ControlError):
            model.forecast(series, steps=0)

    def test_residuals_shape(self):
        series = ar2_series(300)
        model = ArmaModel.fit(series, p=2, q=1)
        res = model.residuals(series)
        assert res.shape == series.shape
        assert np.all(res[: max(model.p, model.q)] == 0.0)

    def test_residuals_smaller_than_signal_variation(self):
        series = ar2_series(500)
        model = ArmaModel.fit(series, p=3, q=1)
        res = model.residuals(series)
        assert res[10:].std() < np.diff(series).std()


class TestValueSemantics:
    def test_equal_fits_compare_and_hash_equal(self):
        series = ar2_series(300)
        a = ArmaModel.fit(series, p=3, q=2)
        b = ArmaModel.fit(series.copy(), p=3, q=2)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_different_fits_compare_unequal(self):
        a = ArmaModel.fit(ar2_series(300, seed=0), p=3, q=2)
        b = ArmaModel.fit(ar2_series(300, seed=1), p=3, q=2)
        assert a != b

    def test_coefficients_are_float_tuples(self):
        model = ArmaModel.fit(ar2_series(300), p=3, q=2)
        assert isinstance(model.ar, tuple) and isinstance(model.ma, tuple)
        assert all(type(c) is float for c in model.ar + model.ma)


class TestExtendInnovations:
    def test_appending_matches_a_fresh_pass_bitwise(self):
        series = ar2_series(200)
        model = ArmaModel.fit(series, p=3, q=2)
        y, e = model.innovations(series[:5])
        for value in series[5:]:
            model.extend_innovations(y, e, float(value))
        assert (y, e) == model.innovations(series)

    def test_innovations_zero_until_every_lag_exists(self):
        model = ArmaModel.fit(ar2_series(300), p=3, q=2)
        y, e = [], []
        for value in (70.1, 69.8, 70.4, 70.2):
            model.extend_innovations(y, e, value)
        assert e[:3] == [0.0, 0.0, 0.0]
        assert y[0] == 70.1 - model.mean
