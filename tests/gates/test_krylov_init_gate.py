"""The krylov-init gate: warmed krylov TALB runs start without GMRES.

A krylov config that reads TALB weights factorizes the exact LU of its
start setting's ``G`` for them during warm-up anyway, so warm-up solves
the runs' initial field on that LU too (six direct solves) and keeps it
in the characterization cache. A warmed 4-point LIQUID_MAX TALB
``resistance_scale`` sweep (16x16, 0.5 s, from an empty system memo,
LU store and neighbor pool) then runs on exactly:

- 0 LUs: warm-up already factorized the one time-step LU the sweep
  steps on, its medoid's (the third point's), into the preconditioner
  pool (the first run used to factorize its own, and before that its
  steady field added its krylov core's own LU of ``G``);
- 15 GMRES solves: the time steps of the other three points, five each
  (their initial fields used to add six each);
- 5 direct solves: the medoid's time steps on its seeded LU (its
  initial field used to add six);

and builds no ``KrylovSteadySolver``. Read through the
``solver.factorizations`` and ``solver.krylov.*`` counters as deltas.
"""

from repro.runner import BatchRunner
from repro.sim.cache import CharacterizationCache, clear_system_memo
from repro.sim.config import CoolingMode, SimulationConfig
from repro.thermal import solver as solver_module
from repro.thermal.rc_network import ThermalParams
from repro.thermal.solver import clear_lu_store, clear_neighbor_cache

from counters import Counters


def test_warmed_krylov_talb_runs_solve_no_initial_field(monkeypatch):
    clear_system_memo()
    clear_lu_store()
    clear_neighbor_cache()
    configs = [
        SimulationConfig(
            policy="TALB", cooling=CoolingMode.LIQUID_MAX, solver="krylov",
            nx=16, ny=16, duration=0.5,
            thermal_params=ThermalParams(resistance_scale=4.0 + 0.06 * i),
        )
        for i in range(4)
    ]
    cache = CharacterizationCache().warm(configs)
    built = []
    init = solver_module.KrylovSteadySolver.__init__

    def recording(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(solver_module.KrylovSteadySolver, "__init__", recording)
    counts = Counters()
    list(BatchRunner(configs, cache=cache).iter_runs())
    factorizations, krylov = counts.factorizations(), counts.krylov()
    monkeypatch.undo()
    clear_system_memo()
    clear_neighbor_cache()
    assert factorizations == 0
    assert krylov["gmres_solves"] == 15
    assert krylov["direct_solves"] == 5
    assert krylov["fallbacks"] == 0
    assert built == [], f"{len(built)} KrylovSteadySolvers built by the runs"
