"""Full-engine golden runs pinned against pre-refactor fixtures.

The JSON fixtures under ``tests/data/`` were produced by the seed
(pre-vectorization, PR 2) engine: short fig6-style runs covering
liquid variable-flow (steady and with a pump transition), air cooling,
and the 4-layer stack. The vectorized engine must reproduce every
recorded series to <= 1e-9 and every discrete series (pump settings,
completions, migrations) exactly.

The golden configs deliberately use queue-length-driven policies (LB,
migration below its threshold): their decisions are robust to
sub-ulp temperature perturbations. TALB's dispatch argmin breaks
mirror-core ties on ~1e-14 weight noise, so its *trajectories* are not
refactor-stable; TALB correctness is pinned instead by the exact
operator/assembly equivalence suite
(``tests/thermal/test_vector_equivalence.py``).

The 2 s goldens end before the forecaster's ``min_history`` (40
samples), so none of them ever fits ARMA. ``golden_liquid_lb_arma``
(16 s, recorded before the ARMA recursion became a Python-float
kernel) fits, slides the history window, refits on SPRT alarms, and
moves the pump across several settings; its forecast, temperature,
flow and pump-power series are pinned exactly. It was re-recorded once,
when the time-step LU moved to SuperLU's symmetric mode: the new
recording is within 1.6e-13 K of the old one in temperature and
1.4e-11 K in forecast, with identical pump settings, completions,
migrations and retrain count. The other four fixtures were not
re-recorded.
"""

import functools
from pathlib import Path

import numpy as np
import pytest

from repro.io.serialize import load_result
from repro.sim.config import CoolingMode, PolicyKind, SimulationConfig
from repro.sim.engine import simulate

DATA = Path(__file__).resolve().parents[1] / "data"

GOLDEN_CASES = {
    "golden_liquid_lb": SimulationConfig(
        benchmark_name="Web-high",
        policy=PolicyKind.LB,
        cooling=CoolingMode.LIQUID_VARIABLE,
        duration=2.0,
        seed=0,
    ),
    "golden_liquid_lb_gzip": SimulationConfig(
        benchmark_name="gzip",
        policy=PolicyKind.LB,
        cooling=CoolingMode.LIQUID_VARIABLE,
        duration=2.0,
        seed=0,
    ),
    "golden_air_lb": SimulationConfig(
        benchmark_name="Web-med",
        policy=PolicyKind.LB,
        cooling=CoolingMode.AIR,
        duration=2.0,
        seed=0,
    ),
    "golden_liquid_migration_4layer": SimulationConfig(
        benchmark_name="Database",
        policy=PolicyKind.MIGRATION,
        cooling=CoolingMode.LIQUID_VARIABLE,
        duration=2.0,
        seed=1,
        n_layers=4,
    ),
    "golden_liquid_lb_arma": SimulationConfig(
        benchmark_name="Database",
        policy=PolicyKind.LB,
        cooling=CoolingMode.LIQUID_VARIABLE,
        duration=16.0,
        seed=0,
    ),
}

FLOAT_SERIES = (
    "times",
    "tmax",
    "tmax_cell",
    "core_temperatures",
    "unit_temperatures",
    "chip_power",
    "pump_power",
    "forecast_tmax",
)
EXACT_SERIES = ("flow_setting", "completed_threads", "migrations")


@functools.lru_cache(maxsize=None)
def run_golden(name):
    """Simulate a golden config once per session (two tests share it)."""
    return simulate(GOLDEN_CASES[name])


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_run_matches_pre_refactor(name):
    result = run_golden(name)
    golden = load_result(DATA / f"{name}.json")

    assert result.unit_names == golden.unit_names
    assert result.core_names == golden.core_names
    assert result.retrain_count == golden.retrain_count
    assert result.sojourn_count == golden.sojourn_count
    assert result.sojourn_sum == pytest.approx(golden.sojourn_sum, abs=1.0e-9)

    for field in EXACT_SERIES:
        np.testing.assert_array_equal(
            getattr(result, field), getattr(golden, field), err_msg=field
        )
    for field in FLOAT_SERIES:
        got = np.asarray(getattr(result, field), dtype=float)
        ref = np.asarray(getattr(golden, field), dtype=float)
        assert got.shape == ref.shape, field
        # NaN-aware (forecast warm-up is NaN) elementwise comparison.
        both_nan = np.isnan(got) & np.isnan(ref)
        close = np.abs(got - ref) <= 1.0e-9
        assert np.all(both_nan | close), (
            f"{field}: max |diff| = {np.nanmax(np.abs(got - ref))}"
        )


def test_arma_golden_is_bitwise_and_exercises_the_forecaster():
    result = run_golden("golden_liquid_lb_arma")
    golden = load_result(DATA / "golden_liquid_lb_arma.json")

    # The pin must reach the forecaster: the initial fit plus at least
    # one SPRT refit, and a forecast that moves the pump.
    assert golden.retrain_count >= 2
    assert len(set(golden.flow_setting.tolist())) >= 2
    assert result.retrain_count == golden.retrain_count
    for field in ("forecast_tmax", "tmax", "flow_setting", "pump_power"):
        np.testing.assert_array_equal(
            getattr(result, field), getattr(golden, field), err_msg=field
        )
