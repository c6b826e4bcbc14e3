"""Cross-network design sweeps with the krylov solver tier.

A thermal design-space sweep changes the *network* at every point —
different resistance scaling, conductivity, geometry — so same-network
cohort batching cannot help and the exact tier pays a fresh sparse LU
per design point. ``solver="krylov"`` factorizes the first point it
meets and steps every neighboring point with preconditioned GMRES off
the nearest retained LU, agreeing with exact within
``KRYLOV_TEMPERATURE_TOLERANCE`` (falling back to a fresh LU if a
solve ever misses that bar).

This script runs one 8-point ``thermal_params.resistance_scale``
neighborhood at 32x32 through both tiers and prints the factorization
counts, the preconditioner hit rate, and the worst temperature
disagreement. The same switch works everywhere: ``repro simulate
--solver krylov``, a ``solver`` sweep axis, ``repro sweep run
--solver krylov``, and ``repro dist work --solver krylov``.

Run:  python examples/design_neighborhood.py
"""

import numpy as np

from repro import SimulationConfig
from repro.runner import BatchRunner
from repro.sim.cache import CharacterizationCache, clear_system_memo
from repro.sim.config import CoolingMode
from repro.telemetry import metrics
from repro.thermal.rc_network import ThermalParams
from repro.thermal.solver import (
    KRYLOV_TEMPERATURE_TOLERANCE,
    clear_neighbor_cache,
)

N_POINTS = 8


def neighborhood(solver: str) -> list[SimulationConfig]:
    """8 design points over resistance_scale: 8 distinct networks."""
    return [
        SimulationConfig(
            policy="RR",
            cooling=CoolingMode.LIQUID_MAX,
            nx=32,
            ny=32,
            duration=1.0,
            solver=solver,
            thermal_params=ThermalParams(resistance_scale=4.0 + 0.1 * i),
        )
        for i in range(N_POINTS)
    ]


def campaign(solver: str):
    """Run the neighborhood cold; return (results, counter deltas)."""
    clear_system_memo()
    clear_neighbor_cache()
    before = metrics.snapshot()
    batch = BatchRunner(
        neighborhood(solver), cohort="auto", cache=CharacterizationCache()
    )
    runs = batch.run().runs
    counters = metrics.snapshot_diff(before, metrics.snapshot())["counters"]
    return [run.result for run in runs], counters


def main() -> int:
    exact_results, exact = campaign("exact")
    krylov_results, krylov = campaign("krylov")
    exact_f = exact.get("solver.factorizations", 0)
    krylov_f = krylov.get("solver.factorizations", 0)

    worst = max(
        float(np.abs(e.tmax - k.tmax).max())
        for e, k in zip(exact_results, krylov_results)
    )
    hits = krylov.get("solver.krylov.preconditioner_hits", 0)
    misses = krylov.get("solver.krylov.preconditioner_misses", 0)
    fallbacks = krylov.get("solver.krylov.fallbacks", 0)
    hit_rate = hits / (hits + misses) if hits + misses else 0.0

    print(f"design neighborhood: {N_POINTS} resistance_scale points, 32x32")
    print(f"  exact  solver: {exact_f} LU factorizations")
    print(
        f"  krylov solver: {krylov_f} LU factorizations"
        f" (preconditioner hit rate {hit_rate:.0%},"
        f" {fallbacks} fallbacks)"
    )
    print(
        f"  max |dT| vs exact: {worst:.2e} K"
        f" (documented tolerance {KRYLOV_TEMPERATURE_TOLERANCE:.0e} K)"
    )

    assert krylov_f < N_POINTS, "krylov must factorize fewer than N points"
    assert worst < KRYLOV_TEMPERATURE_TOLERANCE, "tolerance violated"
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
