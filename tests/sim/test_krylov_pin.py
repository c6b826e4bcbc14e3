"""Bitwise pin of the krylov tier on a two-point design sweep.

``test_krylov_accuracy.py`` bounds krylov against exact at 1e-6 K; this
file pins the krylov tier's own output exactly. A serial two-point
``resistance_scale`` sweep (16x16, TALB, variable flow, 2 s) runs from
an empty system memo, LU store and neighbor pool, so the first point
factorizes and the second preconditions every steady and time-step
solve off the first point's LUs with GMRES. The second point's
temperature, pump-setting and pump-power series, and every solver
counter over the sweep, were recorded before the thermal solver classes
were folded onto one linear core and must stay bitwise equal. Two fresh
processes give identical bytes for this sweep.
"""

import pytest

from repro.runner import BatchRunner
from repro.sim.cache import CharacterizationCache, clear_system_memo
from repro.sim.config import SimulationConfig
from repro.thermal.rc_network import ThermalParams
from repro.thermal.solver import clear_lu_store, clear_neighbor_cache

from counters import Counters

SCALES = (4.0, 4.06)

TMAX = [
    73.34331887485418, 75.83687219464497, 75.8578377532393,
    75.17255965682429, 76.5160729559469, 75.87328225594186,
    75.27106299336258, 75.59110122075806, 75.85957528525257,
    72.76842396423179, 70.20031060378963, 73.91377665706403,
    76.02357295652743, 74.41946988994358, 74.85799925256978,
    75.20385448950935, 76.91058891420076, 77.32449457079696,
    77.40886286250678, 77.03356999808604,
]
FLOW_SETTING = [3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 1, 1, 3, 3, 3, 3, 3, 4, 4, 4]
PUMP_POWER = [14.520000000000003] * 9 + [9.48, 5.880000000000001, 5.880000000000001] + [
    14.520000000000003
] * 5 + [21.0] * 3
FACTORIZATIONS = 12
KRYLOV = {
    "preconditioner_hits": 7,
    "preconditioner_misses": 7,
    "fallbacks": 0,
    "iterations": 999,
    "gmres_solves": 368,
    "direct_solves": 368,
}


@pytest.fixture(scope="module")
def sweep():
    def fresh():
        clear_system_memo()
        clear_lu_store()
        clear_neighbor_cache()

    fresh()
    counts = Counters()
    configs = [
        SimulationConfig(
            nx=16,
            ny=16,
            duration=2.0,
            solver="krylov",
            thermal_params=ThermalParams(resistance_scale=scale),
        )
        for scale in SCALES
    ]
    runs = BatchRunner(configs, cache=CharacterizationCache()).run().runs
    out = runs[1], counts.factorizations(), counts.krylov()
    fresh()
    return out


class TestKrylovSweepIsBitwisePinned:
    def test_second_point_series(self, sweep):
        run, _, _ = sweep
        assert run.config.thermal_params.resistance_scale == SCALES[1]
        assert run.result.tmax.tolist() == TMAX
        assert run.result.flow_setting.tolist() == FLOW_SETTING
        assert run.result.pump_power.tolist() == PUMP_POWER

    def test_solver_counters(self, sweep):
        _, factorizations, krylov = sweep
        assert factorizations == FACTORIZATIONS
        assert krylov == KRYLOV

    def test_pin_exercises_gmres(self, sweep):
        _, _, krylov = sweep
        assert krylov["gmres_solves"] > 0
        assert krylov["fallbacks"] == 0
