"""Performance microbenchmarks of the thermal substrate.

These are true pytest-benchmark timings (multiple rounds): network
assembly, factorization, steady solve, transient step, and a full
engine control interval. They track the solver's cost model: one
factorization per pump setting, cached, so that each transient step
after it is a pair of triangular solves.
"""

import numpy as np
import pytest

from repro import units
from repro.geometry.stack import CoolingKind, build_stack
from repro.power.components import PowerModel
from repro.power.leakage import LeakageModel
from repro.sim.config import CoolingMode, PolicyKind, SimulationConfig
from repro.sim.engine import Simulator
from repro.sim.system import ThermalSystem
from repro.thermal.grid import ThermalGrid
from repro.thermal.rc_network import ThermalParams, build_network
from repro.thermal.solver import SteadyStateSolver, TransientSolver

FLOW = units.ml_per_minute(400.0)


@pytest.fixture(scope="module")
def grid():
    return ThermalGrid(build_stack(2), nx=16, ny=16)


@pytest.fixture(scope="module")
def network(grid):
    return build_network(grid, ThermalParams(), cavity_flows=[FLOW])


def _cores_at_3w(grid):
    """Per-node injection with every core at 3 W."""
    unit_power = np.zeros(grid.n_units)
    unit_power[grid.core_index] = 3.0
    return grid.power_vector_from_array(unit_power)


@pytest.fixture(scope="module")
def power(grid):
    return _cores_at_3w(grid)


def test_bench_network_assembly(benchmark, grid):
    net = benchmark(
        lambda: build_network(grid, ThermalParams(), cavity_flows=[FLOW])
    )
    assert net.n_nodes == 5 * 16 * 16


def test_bench_steady_factorization(benchmark, network):
    solver = benchmark(lambda: SteadyStateSolver(network))
    assert solver is not None


def test_bench_steady_solve(benchmark, network, power):
    solver = SteadyStateSolver(network)
    temps = benchmark(lambda: solver.solve(power))
    assert np.all(np.isfinite(temps))


def test_bench_transient_step(benchmark, network, power):
    solver = TransientSolver(network, dt=0.1)
    state = np.full(network.n_nodes, 60.0)
    out = benchmark(lambda: solver.step(state, power))
    assert np.all(np.isfinite(out))


def test_bench_steady_tmax_with_leakage_loop(benchmark):
    system = ThermalSystem(2, CoolingKind.LIQUID, nx=16, ny=16)
    model = PowerModel(system.stack, leakage=LeakageModel())
    tmax = benchmark(lambda: system.steady_tmax(model, 0.7, setting_index=2))
    assert 60.0 < tmax < 100.0


def test_bench_simulated_second(benchmark):
    """Wall-clock cost of one simulated second of the full engine."""
    config = SimulationConfig(
        benchmark_name="Web-med",
        policy=PolicyKind.TALB,
        cooling=CoolingMode.LIQUID_VARIABLE,
        duration=1.0,
    )

    def run_one_second():
        return Simulator(config).run()

    result = benchmark.pedantic(run_one_second, rounds=3, iterations=1)
    assert len(result.times) == 10


# --- paper-scale cases (PR 3: vectorized hot path) ---------------------------
#
# The paper's grid is 107x107 per slab; these cases track that the
# vectorized substrate keeps 32x32 and 64x64 routine. The full control
# interval includes per-run system setup (grid + per-setting assembly +
# factorization), exactly what every sweep run pays.


@pytest.fixture(scope="module", params=[32, 64])
def paper_grid(request):
    n = request.param
    return ThermalGrid(build_stack(2), nx=n, ny=n)


def test_bench_network_assembly_paper_scale(benchmark, paper_grid):
    net = benchmark(
        lambda: build_network(paper_grid, ThermalParams(), cavity_flows=[FLOW])
    )
    assert net.n_nodes == 5 * paper_grid.nx * paper_grid.ny


def test_bench_transient_step_paper_scale(benchmark, paper_grid):
    network = build_network(paper_grid, ThermalParams(), cavity_flows=[FLOW])
    solver = TransientSolver(network, dt=0.1)
    power = _cores_at_3w(paper_grid)
    state = np.full(network.n_nodes, 60.0)
    out = benchmark(lambda: solver.step(state, power))
    assert np.all(np.isfinite(out))


def test_bench_control_interval_32(benchmark):
    """Warm-cache cost of one control interval at 32x32.

    Times a fresh ``Simulator.run`` of one simulated second (10
    intervals) with a pre-warmed characterization cache — including the
    per-run grid construction, per-setting network assembly, and
    factorizations every batch/sweep run pays — and reports it per
    interval via the extra_info field.
    """
    from repro.sim.cache import CharacterizationCache

    config = SimulationConfig(
        benchmark_name="gzip",
        policy=PolicyKind.TALB,
        cooling=CoolingMode.LIQUID_VARIABLE,
        duration=1.0,
        nx=32,
        ny=32,
    )
    cache = CharacterizationCache()
    Simulator(config, cache=cache).run()  # warm characterizations

    def run_one_second():
        return Simulator(config, cache=cache).run()

    result = benchmark.pedantic(run_one_second, rounds=3, iterations=1)
    benchmark.extra_info["intervals"] = len(result.times)
    assert len(result.times) == 10


def test_bench_assembly_107_smoke(benchmark):
    """Non-gating 107x107 (paper-resolution) assembly smoke.

    No timing assertion — the artifact records the trend; correctness
    of the assembled network is asserted.
    """
    grid = ThermalGrid(build_stack(2), nx=107, ny=107)
    net = benchmark.pedantic(
        lambda: build_network(grid, ThermalParams(), cavity_flows=[FLOW]),
        rounds=2,
        iterations=1,
    )
    assert net.n_nodes == 5 * 107 * 107
    assert np.all(np.isfinite(net.capacitance))
