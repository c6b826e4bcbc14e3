"""The steady-sweep gate: each distinct steady matrix is factorized once.

Both sensitivity sweeps of ``repro.experiments.sweeps`` read the steady
T_max at the lowest and the highest pump setting, so each needs two
steady LUs. ``idle_power_sweep`` varies only the power model, which
changes neither ``G`` nor its LU, so all its idle values run on one
system. ``inlet_temperature_sweep``'s inlets move only the boundary
vector, so its systems share each setting's LU through the LU store
while they are alive. Read through the ``solver.factorizations``
telemetry counter as a delta.
"""

from repro.experiments.sweeps import idle_power_sweep, inlet_temperature_sweep
from repro.sim.cache import clear_system_memo

from counters import Counters


def factorizations(sweep) -> int:
    clear_system_memo()  # cold: drops systems and stored LUs
    counts = Counters()
    sweep()
    return counts.factorizations()


def test_idle_sweep_factorizes_two_lus():
    lus = factorizations(idle_power_sweep)
    assert lus == 2, f"idle-power sweep factorized {lus} LUs; expected 2"


def test_inlet_sweep_factorizes_two_lus():
    lus = factorizations(inlet_temperature_sweep)
    assert lus == 2, f"inlet sweep factorized {lus} LUs; expected 2"
