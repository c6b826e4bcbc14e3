"""The LU-mode gate: which factorization path each LU takes.

In a cold liquid 32x32 run every time-step LU is factorized in
symmetric mode and every steady LU keeps the pivoting path (TALB
weights hinge on its roundoff), read through the
``solver.lu.orderings`` telemetry counter as a snapshot delta. On the
krylov tier the same run factorizes its own steady LUs in symmetric
mode, and an exact system of the same ``G`` still gets a pivoted LU
while the krylov one is resident.
"""

from dataclasses import replace

from repro.sim.cache import clear_system_memo, system_for
from repro.sim.config import CoolingMode, SimulationConfig
from repro.sim.engine import simulate
from repro.telemetry import metrics
from repro.thermal.solver import clear_neighbor_cache

CONFIG = SimulationConfig(
    policy="TALB", cooling=CoolingMode.LIQUID_VARIABLE, nx=32, ny=32, duration=1.0,
)


def _cold_run(config):
    """Counter deltas of one run from an empty system memo (every LU a
    store miss) and an empty preconditioner pool."""
    clear_system_memo()
    clear_neighbor_cache()
    before = metrics.snapshot()
    simulate(config)
    counts = metrics.snapshot_diff(before, metrics.snapshot())["counters"]

    def lus(kind, ordering):
        key = f"solver.lu.orderings{{kind={kind},ordering={ordering}}}"
        return counts.get(key, 0)

    return lus, counts


def test_transient_symmetric_steady_pivoted():
    lus, counts = _cold_run(CONFIG)
    assert lus("transient", "symmetric") > 0, counts
    assert lus("transient", "pivoted") == 0, counts
    assert lus("steady", "pivoted") > 0, counts
    assert lus("steady", "symmetric") == 0, counts


def test_krylov_steady_symmetric_exact_steady_pivoted():
    krylov_config = replace(CONFIG, solver="krylov")
    try:
        lus, counts = _cold_run(krylov_config)
        assert lus("krylov", "symmetric") > 0, counts
        assert lus("krylov", "pivoted") == 0, counts
        assert lus("steady", "symmetric") == 0, counts
        krylov = system_for(krylov_config)
        start = krylov.start_setting
        held = krylov.steady_solver(start)._core._lu
        assert held is not None and held.ordering == "symmetric"
        exact = system_for(CONFIG)
        lu = exact.steady_solver(start)._core
        assert lu.ordering == "pivoted" and lu is not held
        assert krylov.steady_solver(start)._core._lu is held  # still resident
    finally:
        clear_system_memo()
        clear_neighbor_cache()
