"""Steady-state and transient solvers."""

import gc
import weakref

import numpy as np
import pytest

from repro import units
from repro.errors import SolverError
from repro.geometry.stack import build_stack
from repro.thermal.grid import ThermalGrid
from repro.thermal.rc_network import ThermalParams, build_network
from repro.telemetry import metrics
from repro.thermal.solver import (
    SteadyStateSolver,
    TransientSolver,
    clear_lu_store,
)

from counters import Counters

FLOW = units.ml_per_minute(400.0)


@pytest.fixture(scope="module")
def net():
    grid = ThermalGrid(build_stack(2), nx=8, ny=8)
    return build_network(grid, ThermalParams(), cavity_flows=[FLOW])


@pytest.fixture(scope="module")
def power(net):
    return net.grid.power_vector({(0, f"core{i}"): 3.0 for i in range(8)})


class TestSteadyState:
    def test_shape_check(self, net):
        with pytest.raises(SolverError):
            SteadyStateSolver(net).solve(np.zeros(3))

    def test_finite(self, net, power):
        temps = SteadyStateSolver(net).solve(power)
        assert np.all(np.isfinite(temps))

    def test_initial_state_zero_power(self, net):
        temps = SteadyStateSolver(net).solve(np.zeros(net.n_nodes))
        assert np.allclose(temps, 60.0, atol=1e-6)


class TestTransient:
    def test_converges_to_steady_state(self, net, power):
        steady = SteadyStateSolver(net).solve(power)
        solver = TransientSolver(net, dt=0.1)
        temps = np.full(net.n_nodes, 60.0)
        temps = solver.run(temps, power, 100)
        assert np.allclose(temps, steady, atol=0.05)

    def test_steady_state_is_fixed_point(self, net, power):
        steady = SteadyStateSolver(net).solve(power)
        solver = TransientSolver(net, dt=0.1)
        after = solver.step(steady, power)
        assert np.allclose(after, steady, atol=1e-8)

    def test_monotone_heating_from_cold(self, net, power):
        solver = TransientSolver(net, dt=0.1)
        temps = np.full(net.n_nodes, 60.0)
        tmax_series = []
        for _ in range(20):
            temps = solver.step(temps, power)
            tmax_series.append(net.grid.max_die_temperature(temps))
        diffs = np.diff(tmax_series)
        assert np.all(diffs >= -1e-9)

    def test_stable_with_large_dt(self, net, power):
        """Backward Euler is unconditionally stable: even a huge step
        must land near the steady state, not blow up."""
        solver = TransientSolver(net, dt=100.0)
        temps = solver.step(np.full(net.n_nodes, 60.0), power)
        steady = SteadyStateSolver(net).solve(power)
        assert np.all(np.isfinite(temps))
        assert np.abs(temps - steady).max() < 1.0

    def test_cooling_after_power_off(self, net, power):
        solver = TransientSolver(net, dt=0.1)
        hot = SteadyStateSolver(net).solve(power)
        cooled = solver.run(hot, np.zeros(net.n_nodes), 200)
        assert np.allclose(cooled, 60.0, atol=0.05)

    def test_rejects_bad_dt(self, net):
        with pytest.raises(SolverError):
            TransientSolver(net, dt=0.0)

    def test_rejects_shape_mismatch(self, net, power):
        solver = TransientSolver(net, dt=0.1)
        with pytest.raises(SolverError):
            solver.step(np.zeros(3), power)

    def test_rejects_negative_steps(self, net, power):
        solver = TransientSolver(net, dt=0.1)
        with pytest.raises(SolverError):
            solver.run(np.full(net.n_nodes, 60.0), power, -1)

    def test_thermal_time_constant_under_1s(self, net, power):
        """The paper quotes a stack thermal time constant below 100 ms;
        our liquid stack must equilibrate within about a second."""
        solver = TransientSolver(net, dt=0.1)
        steady = SteadyStateSolver(net).solve(power)
        temps = np.full(net.n_nodes, 60.0)
        temps = solver.run(temps, power, 10)  # 1 s.
        gap = np.abs(temps - steady).max()
        initial_gap = np.abs(60.0 - steady).max()
        assert gap < 0.05 * initial_gap


class TestSteadySolverMemo:
    """The content-addressed LU store: solvers share one LU per matrix
    content (not per network object) while any holder is alive, and the
    store lets go of it with the last holder."""

    def _fresh_network(self, **params):
        grid = ThermalGrid(build_stack(2), nx=8, ny=8)
        return build_network(grid, ThermalParams(**params), cavity_flows=[FLOW])

    def test_reuses_factorization_while_network_alive(self):
        net = self._fresh_network()
        s1 = SteadyStateSolver(net)
        s2 = SteadyStateSolver(net)
        assert s1._core is s2._core

    def test_identical_content_shares_one_factorization(self):
        net_a = self._fresh_network(resistance_scale=1.3)
        net_b = self._fresh_network(resistance_scale=1.3)
        assert net_a is not net_b
        counts = Counters()
        s_a = SteadyStateSolver(net_a)
        s_b = SteadyStateSolver(net_b)
        assert s_a._core is s_b._core
        assert counts.factorizations() == 1

    def test_distinct_networks_get_distinct_factorizations(self):
        net_a = self._fresh_network()
        net_b = self._fresh_network(resistance_scale=2.0)
        s_a = SteadyStateSolver(net_a)
        s_b = SteadyStateSolver(net_b)
        assert s_a._core is not s_b._core
        assert s_a._core.digest != s_b._core.digest

    def test_dropped_network_is_released(self):
        net = self._fresh_network(resistance_scale=1.7)
        net_ref = weakref.ref(net)
        solver = SteadyStateSolver(net)
        lu_ref = weakref.ref(solver._core)
        del net, solver
        gc.collect()
        assert net_ref() is None, "the store must not pin the network alive"
        assert lu_ref() is None, "the store must not outlive the last solver"
        counts = Counters()
        SteadyStateSolver(self._fresh_network(resistance_scale=1.7))
        assert counts.factorizations() == 1

    def test_steady_initial_field_is_repeatable(self):
        net = self._fresh_network()
        t1 = SteadyStateSolver(net).solve(np.zeros(net.n_nodes))
        t2 = SteadyStateSolver(net).solve(np.zeros(net.n_nodes))
        np.testing.assert_array_equal(t1, t2)
        assert np.allclose(t1, 60.0, atol=1e-6)


class TestSolveMany:
    def test_columns_match_single_solves(self, net, power):
        solver = SteadyStateSolver(net)
        powers = np.stack([power, 0.5 * power, 2.0 * power], axis=1)
        block = solver.solve_many(powers)
        assert block.shape == powers.shape
        for j in range(3):
            # SuperLU's blocked multi-RHS kernels round differently
            # than the single-vector path: equivalent to LU roundoff.
            np.testing.assert_allclose(
                block[:, j], solver.solve(powers[:, j]), rtol=0, atol=1e-9
            )

    def test_shape_mismatch_raises(self, net, power):
        solver = SteadyStateSolver(net)
        with pytest.raises(SolverError):
            solver.solve_many(power)  # 1-D input
        with pytest.raises(SolverError):
            solver.solve_many(np.zeros((3, 2)))


class TestFactorizationCounter:
    def test_counts_each_factorization_once(self, net):
        """``solver.factorizations`` counts LU-store misses only; a hit
        is counted under ``solver.lu_store.hits`` instead."""
        clear_lu_store()
        counts = Counters()
        solver = TransientSolver(net, dt=0.05)
        assert counts.factorizations() == 1
        # Stepping never factorizes.
        state = np.full(net.n_nodes, 40.0)
        solver.step(state, np.zeros(net.n_nodes))
        assert counts.factorizations() == 1
        steady = SteadyStateSolver(net)
        assert counts.factorizations() == 2
        # Reusing a live LU is free and counted as a hit.
        hits = metrics.counter("solver.lu_store.hits")
        hits_before = hits.value(kind="steady")
        assert SteadyStateSolver(net)._core is steady._core
        assert counts.factorizations() == 2
        assert hits.value(kind="steady") == hits_before + 1
        # Clearing the store makes the next solver factorize afresh.
        clear_lu_store()
        assert SteadyStateSolver(net)._core is not steady._core
        assert counts.factorizations() == 3
