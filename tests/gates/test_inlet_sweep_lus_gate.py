"""The inlet-sweep gate: inlets move only the boundary vector.

So a cold 4-inlet TALB sweep must factorize exactly as often as a
single-inlet run of the same config (content-addressed LUs), under
variable flow, at the top pump setting and under air, read through
the ``solver.factorizations`` telemetry counter as a delta.
"""

import pytest

from repro.runner import BatchRunner
from repro.sim.cache import CharacterizationCache, clear_system_memo
from repro.sim.config import CoolingMode, SimulationConfig
from repro.telemetry import metrics
from repro.thermal.rc_network import ThermalParams


def factorizations(cooling, inlets):
    clear_system_memo()  # cold: drops systems and stored LUs
    configs = [
        SimulationConfig(
            policy="TALB", cooling=cooling,
            nx=16, ny=16, duration=0.5,
            thermal_params=ThermalParams(inlet_temperature=t),
        )
        for t in inlets
    ]
    counter = metrics.counter("solver.factorizations")
    before = counter.value()
    list(BatchRunner(configs, cache=CharacterizationCache()).iter_runs())
    return counter.value() - before


@pytest.mark.parametrize(
    "cooling", [CoolingMode.LIQUID_VARIABLE, CoolingMode.LIQUID_MAX, CoolingMode.AIR]
)
def test_four_inlets_factorize_as_one(cooling):
    one = factorizations(cooling, [45.0])
    four = factorizations(cooling, [45.0, 55.0, 65.0, 75.0])
    assert four == one, f"4-inlet sweep: {four} LUs vs {one} for one inlet"
