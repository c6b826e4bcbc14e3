"""The inlet-sweep gate: inlets move only the boundary vector.

So a cold 4-inlet sweep must factorize exactly as often as a
single-inlet run of the same config (content-addressed LUs), read
through the ``solver.factorizations`` telemetry counter as a delta.
"""

from repro.runner import BatchRunner
from repro.sim.cache import CharacterizationCache, clear_system_memo
from repro.sim.config import CoolingMode, SimulationConfig
from repro.telemetry import metrics
from repro.thermal.rc_network import ThermalParams


def factorizations(inlets):
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
    list(BatchRunner(configs, cache=CharacterizationCache()).iter_runs())
    return counter.value() - before


def test_four_inlets_factorize_as_one():
    one = factorizations([45.0])
    four = factorizations([45.0, 55.0, 65.0, 75.0])
    assert four == one, f"4-inlet sweep: {four} LUs vs {one} for one inlet"
