"""The forecaster gate: ARMA innovations passes per observed sample.

A variable-flow run makes exactly one ARMA innovations pass per sample
observed with a fitted model, and before the history window fills it
reruns the full recursion only after a fit. Read through the
``control.forecast.*`` telemetry counters, as snapshot deltas.
"""

from repro.sim.config import CoolingMode, SimulationConfig
from repro.sim.engine import simulate
from repro.telemetry import metrics


def test_one_pass_per_fitted_sample():
    passes = metrics.counter("control.forecast.passes")
    refits = metrics.counter("control.forecast.refits")
    before = passes.value(), refits.value(reason="initial")
    result = simulate(SimulationConfig(
        cooling=CoolingMode.LIQUID_VARIABLE, nx=16, ny=16, duration=8.0,
    ))
    made = passes.value() - before[0]
    assert refits.value(reason="initial") - before[1] == 1
    # The initial fit lands on sample 40 (default min_history).
    fitted = len(result.times) - 40 + 1
    assert made == fitted, f"{made} ARMA passes for {fitted} fitted samples"


def test_full_pass_only_after_a_fit_while_the_window_fills():
    # 100 samples never fill the 120-sample window, so every pass but
    # the one after each fit extends the innovations in place.
    rebuilds = metrics.counter("control.forecast.rebuilds")
    refits = metrics.counter("control.forecast.refits")
    before = rebuilds.value(), refits.total()
    result = simulate(SimulationConfig(
        cooling=CoolingMode.LIQUID_VARIABLE, nx=16, ny=16, duration=10.0,
    ))
    assert len(result.times) == 100
    made = rebuilds.value() - before[0]
    fits = refits.total() - before[1]
    assert made == fits, f"{made} full ARMA passes for {fits} fits"
