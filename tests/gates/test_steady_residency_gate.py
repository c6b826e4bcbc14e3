"""The steady-residency gate: warm-up leaves no steady LU.

The steady LUs behind the flow table, the TALB weights and the initial
field are scaffolding: the runs start from the initial field warm-up
keeps in the characterization cache. After ``CharacterizationCache.warm``
of a cold 4-inlet variable-flow TALB sweep, the LU store must hold no
steady (pivoted) LU and no time-step (symmetric) LU, and no system may
hold a steady solver. Releasing them must cost no extra factorization:
the whole sweep, warm-up and runs, factorizes exactly as often as a
single inlet. A config that reads neither a flow table nor weights (RR
at LIQUID_MAX or under air) ends its run holding no steady LU either,
and a design sweep (one steady matrix per point) never holds two steady
LUs at once during warm-up. Read through the ``solver.lu.resident``
gauges and the ``solver.factorizations`` counter.
"""

import pytest

from repro.runner import BatchRunner
from repro.sim.cache import CharacterizationCache, clear_system_memo, system_for
from repro.sim.config import CoolingMode, SimulationConfig
from repro.telemetry import metrics
from repro.thermal import solver as solver_module
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


@pytest.mark.parametrize("cooling", [CoolingMode.LIQUID_MAX, CoolingMode.AIR])
def test_rr_run_at_fixed_cooling_keeps_no_steady_lu(cooling):
    """RR reads neither a flow table nor weights; warm-up still solves
    its initial field, so its run builds no steady solver."""
    clear_system_memo()
    config = SimulationConfig(policy="RR", cooling=cooling, nx=16, ny=16, duration=0.5)
    cache = CharacterizationCache().warm([config])
    list(BatchRunner([config], cache=cache).iter_runs())
    system = system_for(config)
    resident = metrics.gauge("solver.lu.resident").value(ordering="pivoted")
    assert list(system._steadies) == [], "the run kept a steady solver"
    assert resident == 0, f"{resident} steady LUs resident after the run"
    clear_system_memo()


def test_design_sweep_holds_one_steady_lu_at_a_time(monkeypatch):
    """Each point of a resistance sweep is its own steady matrix: warm-up
    drops a point's steady LU before the next point factorizes."""
    gauge = metrics.gauge("solver.lu.resident")
    peaks = []
    publish = solver_module._publish_residency

    def recording():
        publish()
        peaks.append(gauge.value(ordering="pivoted"))

    clear_system_memo()
    configs = [
        SimulationConfig(
            policy="TALB", cooling=CoolingMode.LIQUID_MAX, nx=16, ny=16, duration=0.5,
            thermal_params=ThermalParams(resistance_scale=4.0 + 0.1 * i),
        )
        for i in range(4)
    ]
    monkeypatch.setattr(solver_module, "_publish_residency", recording)
    CharacterizationCache().warm(configs)
    monkeypatch.undo()
    assert peaks and max(peaks) == 1, f"steady LUs resident at once: {peaks}"
    clear_system_memo()
