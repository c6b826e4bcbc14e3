"""Paper-resolution smoke tests.

The paper discretizes at 100 um cells — 107x107 per slab, ~57k nodes
for the 2-layer liquid stack. These tests pin that the vectorized
substrate actually sustains paper-scale grids: a gating 64x64 check
(build + factorize + 10 transient steps under a generous wall-clock
ceiling; CI runs this file as its own named step) and a slow-marked
107x107 assemble/factorize/step smoke.
"""

import time

import numpy as np
import pytest

from repro import units
from repro.geometry.stack import build_stack
from repro.thermal.grid import ThermalGrid
from repro.thermal.rc_network import ThermalParams, build_network
from repro.thermal.solver import TransientSolver

from helpers import power_vector

FLOW = units.ml_per_minute(400.0)

#: Generous ceilings: the vectorized path runs the 64x64 smoke in ~1 s
#: on a laptop; the ceiling only guards against a reintroduced
#: per-cell Python path (which took minutes at this scale).
CEILING_64 = 60.0


def _run_smoke(n: int, steps: int) -> tuple[float, np.ndarray]:
    start = time.perf_counter()
    grid = ThermalGrid(build_stack(2), nx=n, ny=n)
    network = build_network(grid, ThermalParams(), cavity_flows=[FLOW])
    solver = TransientSolver(network, dt=0.1)
    power = power_vector(grid, {(0, f"core{i}"): 3.0 for i in range(8)})
    state = np.full(network.n_nodes, 60.0)
    for _ in range(steps):
        state = solver.step(state, power)
    return time.perf_counter() - start, state


def test_paper_resolution_smoke_64():
    """Gating: 64x64 network + 10 transient steps inside the ceiling."""
    elapsed, state = _run_smoke(64, steps=10)
    assert np.all(np.isfinite(state))
    assert state.max() > 60.0  # heat actually arrived
    assert elapsed < CEILING_64, f"64x64 smoke took {elapsed:.1f}s"


@pytest.mark.slow
def test_paper_resolution_smoke_107():
    """The paper's grid: 107x107 (57k nodes) assembles and factorizes."""
    grid = ThermalGrid(build_stack(2), nx=107, ny=107)
    assert grid.n_nodes == 5 * 107 * 107
    network = build_network(grid, ThermalParams(), cavity_flows=[FLOW])
    solver = TransientSolver(network, dt=0.1)
    power = power_vector(grid, {(0, f"core{i}"): 3.0 for i in range(8)})
    state = np.full(network.n_nodes, 60.0)
    state = solver.step(state, power)
    assert np.all(np.isfinite(state))
    assert grid.max_die_temperature(state) > 60.0
