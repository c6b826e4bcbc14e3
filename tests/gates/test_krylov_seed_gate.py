"""The krylov-seed gate: a warmed design sweep preconditions from its medoid.

``CharacterizationCache.warm`` factorizes the centre point of each krylov
design sweep into the preconditioner pool, so the runs find it as their
nearest neighbor instead of preconditioning every point with the LU of
whichever point ran first (the edge of the sweep). On a warmed 5-point
LIQUID_MAX TALB ``resistance_scale`` sweep (16x16, 0.5 s, from an empty
system memo, LU store and neighbor pool):

- warm-up factorizes the one time-step LU the sweep steps on, the
  middle point's, after its last steady LU is released (no pivoted LU
  is resident then), and counts it as a ``kind=preconditioner`` miss;
- the runs factorize 0 LUs;
- their summed GMRES iterations are below those of the same sweep
  preconditioned from its first point (the pool emptied after warm-up,
  so the first run factorizes its own LU, as before seeding);
- a second ``warm()`` of the same configs builds no system and
  factorizes nothing.

Read through the ``solver.factorizations``, ``solver.krylov.*``,
``cache.characterization.*`` and ``cache.system.*`` counters as deltas.
"""

from repro.runner import BatchRunner
from repro.sim.cache import CharacterizationCache, clear_system_memo
from repro.sim.config import CoolingMode, SimulationConfig
from repro.telemetry import metrics
from repro.thermal import solver as solver_module
from repro.thermal.rc_network import ThermalParams
from repro.thermal.solver import clear_lu_store, clear_neighbor_cache

from counters import Counters

CONFIGS = [
    SimulationConfig(
        policy="TALB", cooling=CoolingMode.LIQUID_MAX, solver="krylov",
        nx=16, ny=16, duration=0.5,
        thermal_params=ThermalParams(resistance_scale=4.0 + 0.06 * i),
    )
    for i in range(5)
]


def fresh():
    clear_system_memo()
    clear_lu_store()
    clear_neighbor_cache()


def time_step_entries():
    """The resistance scales of the pool's time-step LUs."""
    return [
        params.resistance_scale
        for structure, params in solver_module._neighbor_cache._entries
        if "dt" in structure
    ]


def run(cache):
    """The runs' LU factorizations and GMRES iterations."""
    counts = Counters()
    list(BatchRunner(CONFIGS, cache=cache).iter_runs())
    return counts.factorizations(), counts.krylov()


def test_warmed_sweep_preconditions_from_its_medoid(monkeypatch):
    fresh()
    pivoted_at_seed = []
    factorize = solver_module.factorize

    def recording(matrix, kind):
        if kind == "krylov":
            gauge = metrics.gauge("solver.lu.resident")
            pivoted_at_seed.append(gauge.value(ordering="pivoted"))
        return factorize(matrix, kind)

    monkeypatch.setattr(solver_module, "factorize", recording)
    warm = Counters()
    cache = CharacterizationCache().warm(CONFIGS)
    monkeypatch.undo()
    assert time_step_entries() == [CONFIGS[2].thermal_params.resistance_scale]
    assert pivoted_at_seed == [0], "the seed was factorized beside a steady LU"
    assert warm.delta("solver.lu.orderings{kind=krylov,ordering=symmetric}") == 1
    assert warm.delta("cache.characterization.misses{kind=preconditioner}") == 1

    factorizations, seeded = run(cache)
    assert factorizations == 0
    assert seeded["direct_solves"] == 5, "the medoid solves direct"
    assert seeded["fallbacks"] == 0

    rewarm = Counters()
    cache.warm(CONFIGS)
    assert rewarm.factorizations() == 0
    assert rewarm.delta("cache.system.misses") == 0
    assert rewarm.delta("cache.system.hits") == 0
    assert rewarm.delta("cache.characterization.misses{kind=preconditioner}") == 0

    # The same sweep preconditioned from its first point, as before
    # seeding: the first run misses the emptied pool and factorizes.
    clear_neighbor_cache()
    factorizations, from_first = run(cache)
    fresh()
    assert factorizations == 1
    assert seeded["iterations"] < from_first["iterations"], (
        f"{seeded['iterations']} GMRES iterations from the medoid vs"
        f" {from_first['iterations']} from the first point"
    )
