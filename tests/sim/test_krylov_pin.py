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

The GMRES counters were re-recorded when the characterization moved to
unit space: the flow table now solves 19 columns per setting (one unit
response) instead of 66 (6 leakage iterations x 11 utilizations), and
the burst floor reuses those responses.

The temperature series and the GMRES iteration count were re-recorded
when the iterative core moved to a right-preconditioned GMRES that
stops on the true residual at ``KRYLOV_TOLERANCE = 1e-12`` (scipy's
left-preconditioned ``gmres`` at 1e-10 before): temperatures moved by
at most 2.6e-10 K, iterations went from 460 to 463, and the pump
series, factorizations and every other counter are unchanged.

The GMRES iteration count was re-recorded when the unit response's
``R`` columns started solving ``G x = S e_j`` without the boundary
vector: each point-source column is now driven to 1e-12 of its own
norm, not of the much larger ``||S e_j + b||``, so iterations went from
463 to 633. The series and every other counter are unchanged.

The temperature series and the factorization count were re-recorded
when the krylov tier's own LUs of the steady ``G`` became unpivoted
(symmetric mode on an irreducibly diagonally dominant M-matrix) and the
LU store began keying LUs by matrix and mode: temperatures moved by at
most 2.9e-14 K, and the pump-setting and pump-power series, the GMRES
iterations and every krylov counter are unchanged. Factorizations went
from 12 to 17: the first point's TALB weights used to share its krylov
core's pivoted LU of each setting's ``G`` through the store, and an
exact-tier request never receives the krylov tier's unpivoted LU, so
those weights now factorize their own pivoted LU per setting (5 more).

The temperature series and the GMRES counters were re-recorded when
the initial field became a characterization-cache artifact. Warm-up
now solves a krylov TALB config's initial field on the exact pivoted LU
of its start setting, the LU its TALB weights factorize anyway, with
six direct solves. Before, the first point's run solved it on its
krylov core's unpivoted LU and the second point's by GMRES.
Temperatures moved by at most 5.6e-12 K. GMRES solves went from 121
to 115 and iterations from 633 to 615: the second point's six init
solves are gone. Direct solves went from 121 to 115: the first point's
six init solves on its krylov core are gone. The pump-setting and
pump-power series, the factorizations (17: the flow table still builds
the krylov core of every setting) and the preconditioner hits and
misses are unchanged.

The preconditioner hits and misses were re-recorded when warm-up began
seeding each krylov design sweep's medoid into the preconditioner pool.
The two points tie, so the medoid is the first point, and warm-up
factorizes its start setting's time-step LU, the LU its first run used
to factorize on a pool miss. That run's transient core now finds it at
distance 0.0: hits went from 7 to 8 and misses from 7 to 6. The
temperature, pump-setting and pump-power series, the factorizations
(17, one of them now in warm-up) and every GMRES and direct-solve
count are unchanged.
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
    73.34331887478281, 75.83687219484214, 75.85783775349294,
    75.17255965659224, 76.51607295596763, 75.8732822557101,
    75.27106299325195, 75.59110122081756, 75.8595752853501,
    72.76842396434567, 70.20031060358639, 73.91377665689967,
    76.02357295630664, 74.4194698897929, 74.85799925254794,
    75.2038544894386, 76.91058891443232, 77.32449457070577,
    77.40886286233052, 77.03356999833873,
]
FLOW_SETTING = [3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 1, 1, 3, 3, 3, 3, 3, 4, 4, 4]
PUMP_POWER = [14.520000000000003] * 9 + [9.48, 5.880000000000001, 5.880000000000001] + [
    14.520000000000003
] * 5 + [21.0] * 3
FACTORIZATIONS = 17
KRYLOV = {
    "preconditioner_hits": 8,
    "preconditioner_misses": 6,
    "fallbacks": 0,
    "iterations": 615,
    "gmres_solves": 115,
    "direct_solves": 115,
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
    runs = list(BatchRunner(configs, cache=CharacterizationCache()).iter_runs())
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
