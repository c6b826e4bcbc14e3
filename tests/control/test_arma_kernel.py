"""The Python-float ARMA kernel against the numpy-scalar reference.

Residuals and 1..5-step forecasts must match ``naive_arma.NaiveArma``
bit for bit, for fitted models and for arbitrary coefficients, over
the orders the forecaster and its ablations use. The same holds one
level up: the forecaster's cached-innovations forecast equals the
reference recursion over its current model and history window.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naive_arma import NaiveArma
from repro.control.arma import ArmaModel
from repro.control.forecaster import TemperatureForecaster

ORDERS = ((1, 0), (3, 2), (2, 4), (5, 1))

temperatures = st.floats(min_value=20.0, max_value=100.0)
coefficients = st.floats(min_value=-1.0, max_value=1.0)


def assert_kernel_matches_reference(model, series):
    ref = NaiveArma(model)
    got = model.residuals(series)
    want = ref.residuals(series)
    assert got.shape == want.shape
    assert got.tolist() == want.tolist()
    for steps in range(1, 6):
        assert model.forecast(series, steps) == ref.forecast(series, steps)
    y, e = model.innovations(series)
    assert e == want.tolist()
    assert model.forecast_from(y, e, 5) == ref.forecast(series, 5)


@pytest.mark.parametrize("order", ORDERS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fitted_model_matches_reference(order, data):
    p, q = order
    n = data.draw(st.integers(min_value=4 * (p + q) + 10, max_value=150))
    series = np.asarray(data.draw(st.lists(temperatures, min_size=n, max_size=n)))
    model = ArmaModel.fit(series, p=p, q=q)
    assert_kernel_matches_reference(model, series)


@pytest.mark.parametrize("order", ORDERS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_arbitrary_coefficients_match_reference(order, data):
    p, q = order
    n = data.draw(st.integers(min_value=max(p, q), max_value=150))
    model = ArmaModel(
        ar=data.draw(st.lists(coefficients, min_size=p, max_size=p)),
        ma=data.draw(st.lists(coefficients, min_size=q, max_size=q)),
        mean=data.draw(temperatures),
        sigma=1.0,
    )
    series = data.draw(st.lists(temperatures, min_size=n, max_size=n))
    assert_kernel_matches_reference(model, series)


def test_forecaster_matches_reference_through_refits():
    """Drive the forecaster across a regime change (window slides, the
    SPRT refits): every prediction equals the reference 5-step forecast
    over the same model and window, clamped to the physical band."""
    f = TemperatureForecaster(min_history=40, window=80)
    rng = np.random.default_rng(2)
    series = np.concatenate([
        70.0 + rng.normal(0, 0.2, 100),
        85.0 + 0.5 * np.arange(60.0) + rng.normal(0, 0.2, 60),
    ])
    window = deque(maxlen=80)
    for value in series:
        f.observe(float(value))
        window.append(float(value))
        if f.model is None:
            continue
        history = np.asarray(window)
        want = NaiveArma(f.model).forecast(history, 5)
        want = float(np.clip(want, history.min() - 20.0, history.max() + 20.0))
        assert f.predict() == want
    assert f.retrain_count >= 2
