"""The LU-mode gate: which factorization path each LU takes.

In a cold liquid 32x32 run every time-step LU is factorized in
symmetric mode and every steady LU keeps the pivoting path (TALB
weights hinge on its roundoff), read through the
``solver.lu.orderings`` telemetry counter as a snapshot delta.
"""

from repro.sim.cache import clear_system_memo
from repro.sim.config import CoolingMode, SimulationConfig
from repro.sim.engine import simulate
from repro.telemetry import metrics


def test_transient_symmetric_steady_pivoted():
    clear_system_memo()  # cold: every LU is a store miss
    before = metrics.snapshot()
    simulate(SimulationConfig(
        policy="TALB", cooling=CoolingMode.LIQUID_VARIABLE,
        nx=32, ny=32, duration=1.0,
    ))
    counts = metrics.snapshot_diff(before, metrics.snapshot())["counters"]

    def lus(kind, ordering):
        key = f"solver.lu.orderings{{kind={kind},ordering={ordering}}}"
        return counts.get(key, 0)

    assert lus("transient", "symmetric") > 0, counts
    assert lus("transient", "pivoted") == 0, counts
    assert lus("steady", "pivoted") > 0, counts
    assert lus("steady", "symmetric") == 0, counts
