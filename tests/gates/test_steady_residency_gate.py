"""The steady-residency gate: warm-up leaves no steady LU.

The steady LUs behind the flow table, the TALB weights and the initial
field are scaffolding: the runs start from the affine map of the start
setting's kept ``Phi`` and ``phi``. After ``CharacterizationCache.warm``
of a cold 4-inlet variable-flow TALB sweep, the LU store must hold no
steady (pivoted) LU and no time-step (symmetric) LU, and no system may
hold a steady solver. Releasing them must cost no extra factorization:
the whole sweep, warm-up and runs, factorizes exactly as often as a
single inlet. Read through the ``solver.lu.resident`` gauges and the
``solver.factorizations`` counter.
"""

from repro.runner import BatchRunner
from repro.sim.cache import CharacterizationCache, clear_system_memo, system_for
from repro.sim.config import CoolingMode, SimulationConfig
from repro.telemetry import metrics
from repro.thermal.rc_network import ThermalParams

INLETS = [45.0, 55.0, 65.0, 75.0]


def campaign(inlets):
    """Cold warm-up then runs: the LUs resident after the warm-up
    (pivoted, symmetric), whether every system dropped all its steady
    solvers, and the factorizations over the whole campaign."""
    clear_system_memo()  # cold: drops systems and stored LUs
    configs = [
        SimulationConfig(
            policy="TALB", cooling=CoolingMode.LIQUID_VARIABLE,
            nx=16, ny=16, duration=0.5,
            thermal_params=ThermalParams(inlet_temperature=t),
        )
        for t in inlets
    ]
    counter = metrics.counter("solver.factorizations")
    before = counter.value()
    cache = CharacterizationCache().warm(configs)
    gauge = metrics.gauge("solver.lu.resident")
    resident = (gauge.value(ordering="pivoted"), gauge.value(ordering="symmetric"))
    systems = [system_for(config) for config in configs]
    none_held = all(not s._steadies for s in systems)
    list(BatchRunner(configs, cache=cache).iter_runs())
    return resident, none_held, counter.value() - before


def test_warm_up_keeps_no_steady_lu():
    one_resident, one_none_held, one = campaign(INLETS[:1])
    four_resident, four_none_held, four = campaign(INLETS)
    assert one_resident == four_resident == (0, 0), (
        f"(steady, time-step) LUs resident after warm-up: {one_resident} for"
        f" one inlet, {four_resident} for four (expected (0, 0))"
    )
    assert one_none_held and four_none_held, "a system kept a steady solver"
    assert four == one, f"4-inlet sweep: {four} LUs vs {one} for one inlet"
