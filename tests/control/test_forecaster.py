"""Temperature forecaster: ARMA + SPRT retraining orchestration."""

import numpy as np
import pytest

from repro.control.forecaster import PersistenceForecaster, TemperatureForecaster
from repro.errors import ControlError
from repro.sim.config import CoolingMode, PolicyKind, SimulationConfig
from repro.sim.engine import Simulator

from counters import Counters


def feed(forecaster, series):
    for value in series:
        forecaster.observe(float(value))


class TestWarmup:
    def test_persistence_before_enough_history(self):
        f = TemperatureForecaster(min_history=40)
        feed(f, [70.0, 71.0, 72.0])
        assert f.predict() == pytest.approx(72.0)
        assert f.model is None

    def test_fits_after_min_history(self):
        f = TemperatureForecaster(min_history=40)
        rng = np.random.default_rng(0)
        feed(f, 70.0 + rng.normal(0, 0.3, 45))
        assert f.model is not None
        assert f.retrain_count == 1

    def test_predict_without_observations_raises(self):
        with pytest.raises(ControlError):
            TemperatureForecaster().predict()


class TestPrediction:
    def test_tracks_slow_sine(self):
        """Maximum temperature varies slowly (thermal time constants);
        the 5-step forecast must stay within ~1 degC."""
        f = TemperatureForecaster(horizon_steps=5, min_history=40)
        t = np.arange(300)
        series = 75.0 + 3.0 * np.sin(2 * np.pi * t / 120.0)
        errors = []
        for k in range(len(series) - 5):
            f.observe(series[k])
            if k > 60:
                errors.append(abs(f.predict() - series[k + 5]))
        assert np.mean(errors) < 1.0

    def test_prediction_clamped_to_physical_band(self):
        f = TemperatureForecaster(min_history=40)
        rng = np.random.default_rng(1)
        feed(f, 70.0 + rng.normal(0, 0.2, 60))
        pred = f.predict()
        assert 40.0 < pred < 100.0


class TestRetraining:
    def test_regime_change_triggers_retrain(self):
        """A day/night-style workload shift must trip the SPRT and
        re-fit the predictor (Section IV)."""
        f = TemperatureForecaster(min_history=40, window=80)
        rng = np.random.default_rng(2)
        feed(f, 70.0 + rng.normal(0, 0.2, 80))
        before = f.retrain_count
        # Abrupt shift to a different level and slope.
        feed(f, 85.0 + 0.5 * np.arange(40.0) + rng.normal(0, 0.2, 40))
        assert f.retrain_count > before

    def test_stationary_signal_rarely_retrains(self):
        f = TemperatureForecaster(min_history=40, window=80)
        rng = np.random.default_rng(3)
        feed(f, 72.0 + rng.normal(0, 0.25, 500))
        assert f.retrain_count <= 4


class TestValidation:
    def test_rejects_bad_horizon(self):
        with pytest.raises(ControlError):
            TemperatureForecaster(horizon_steps=0)

    def test_rejects_window_smaller_than_min_history(self):
        with pytest.raises(ControlError):
            TemperatureForecaster(window=30, min_history=40)

    def test_rejects_small_min_history(self):
        with pytest.raises(ControlError):
            TemperatureForecaster(order=(4, 4), min_history=20)

    def test_rejects_non_finite_observation(self):
        f = TemperatureForecaster()
        with pytest.raises(ControlError):
            f.observe(float("inf"))


class TestIncrementalInnovations:
    """While the window fills, the forecaster extends its innovations by
    one step per sample instead of rerunning the recursion; the kept
    lists must equal a fresh full pass at every sample, bitwise."""

    def test_matches_a_full_pass_at_every_sample_of_a_run(self):
        config = SimulationConfig(
            benchmark_name="Database",
            policy=PolicyKind.LB,
            cooling=CoolingMode.LIQUID_VARIABLE,
            duration=20.0,
            seed=0,
        )
        sim = Simulator(config)
        counts = Counters()
        checked = 0
        while not sim.finished:
            sim.step()
            f = sim._state.forecaster
            if f.model is None:
                continue
            y, e = f.model.innovations(f._history)
            assert f._y == y and f._e == e, sim.intervals_completed
            checked += 1
        # The run fits, refits on an SPRT alarm, and slides the window.
        assert f.retrain_count >= 2
        assert checked > f.window + 10
        # Every fitted sample makes one pass (the check above, one more).
        assert counts.delta("control.forecast.passes") == 2 * checked
        # Full passes: one per fit while the window fills, then one per
        # sample once it slides.
        slid = sim.interval_count - f.window
        fill_rebuilds = counts.delta("control.forecast.rebuilds") - slid
        assert 1 <= fill_rebuilds <= f.retrain_count

    def test_matches_a_full_pass_across_a_refit_while_filling(self):
        f = TemperatureForecaster(min_history=40, window=200)
        rng = np.random.default_rng(2)
        series = np.concatenate(
            [
                70.0 + rng.normal(0, 0.2, 80),
                85.0 + 0.5 * np.arange(40.0) + rng.normal(0, 0.2, 40),
                rng.normal(90.0, 0.2, 120),
            ]
        )
        counts = Counters()
        refit_while_filling = False
        for value in series:
            model = f.model
            f.observe(float(value))
            if f.model is None:
                continue
            refit_while_filling |= model is not None and f.model is not model and (
                len(f._history) < f.window
            )
            y, e = f.model.innovations(f._history)
            assert f._y == y and f._e == e, len(f._history)
        assert refit_while_filling
        slid = len(series) - f.window
        assert counts.delta("control.forecast.rebuilds") - slid == f.retrain_count


class TestPersistenceForecaster:
    def test_predicts_the_last_observation(self):
        f = PersistenceForecaster()
        for value in (70.0, 72.5, 71.25):
            f.observe(value)
        assert f.predict() == 71.25
        assert f.retrain_count == 0

    def test_rejects_non_finite_samples_and_early_predictions(self):
        f = PersistenceForecaster()
        with pytest.raises(ControlError, match="no observations"):
            f.predict()
        with pytest.raises(ControlError, match="finite"):
            f.observe(float("nan"))
