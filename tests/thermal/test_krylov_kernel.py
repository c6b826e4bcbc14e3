"""The krylov tier's GMRES kernel: right preconditioning, true-residual
stop, one preconditioner solve per iteration, and the exact fallback.

``_right_gmres`` is exercised on small liquid-cooled networks with a
neighbor design point's LU as the preconditioner, over random neighbor
distances, powers and warm starts; ``_KrylovCore`` is checked to answer
exactly whenever the kernel breaks down.
"""

import functools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.geometry.stack import build_stack
from repro.thermal.grid import ThermalGrid
from repro.thermal.rc_network import ThermalParams, build_network
from repro.thermal.solver import (
    KRYLOV_MAX_ITERATIONS,
    KRYLOV_TOLERANCE,
    KrylovSteadySolver,
    NeighborFactorCache,
    SteadyStateSolver,
    _right_gmres,
)

from counters import Counters

DT = 0.1


@functools.lru_cache(maxsize=None)
def _grid(n: int) -> ThermalGrid:
    return ThermalGrid(build_stack(2), nx=n, ny=n)


def _matrix(network, transient: bool) -> sp.csr_matrix:
    """The steady ``G`` or the backward-Euler ``C/dt + G``."""
    if transient:
        return (network.conductance + sp.diags(network.capacitance / DT)).tocsr()
    return network.conductance.tocsr()


@st.composite
def systems(draw):
    """``(A, rhs, x0, neighbor LU)`` for a random small liquid network.

    The neighbor differs in ``resistance_scale`` by 0.1-5 %; ``x0`` is
    ``None`` (cold) or the exact field of a scaled power (warm, as in
    successive time steps or leakage iterates)."""
    grid = _grid(draw(st.sampled_from((4, 6, 8))))
    scale = draw(st.floats(min_value=1.0, max_value=8.0))
    distance = draw(st.floats(min_value=1.0e-3, max_value=0.05))
    flow = units.ml_per_minute(draw(st.floats(min_value=100.0, max_value=800.0)))
    transient = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    def matrix(resistance_scale):
        network = build_network(
            grid, ThermalParams(resistance_scale=resistance_scale),
            cavity_flows=[flow],
        )
        return network, _matrix(network, transient)

    network, a = matrix(scale)
    _, neighbor = matrix(scale * (1.0 + distance))
    power = grid.power_vector_from_array(rng.uniform(0.0, 6.0, grid.n_units))
    rhs = power + network.boundary
    if transient:
        rhs = rhs + network.capacitance / DT * rng.uniform(45.0, 80.0)
    x0 = None
    if draw(st.booleans()):
        x0 = spla.splu(a.tocsc()).solve(rhs * draw(st.floats(0.5, 1.5)))
    return a, rhs, x0, spla.splu(neighbor.tocsc())


def _counting(solve):
    """``solve`` plus a list that grows by one entry per call."""
    calls = []

    def counted(rhs):
        calls.append(1)
        return solve(rhs)

    return counted, calls


class TestRightGmres:
    @settings(max_examples=30, deadline=None)
    @given(system=systems())
    def test_true_residual_meets_tolerance(self, system):
        a, rhs, x0, neighbor = system
        x, iterations, residual = _right_gmres(
            a, rhs, x0, neighbor.solve, KRYLOV_TOLERANCE, KRYLOV_MAX_ITERATIONS
        )
        true = np.linalg.norm(rhs - a @ x) / np.linalg.norm(rhs)
        assert residual == true
        assert true <= KRYLOV_TOLERANCE
        # A warm start can already solve the system (a drawn factor of
        # 1.0): then, and only then, no iteration is spent.
        start = rhs if x0 is None else rhs - a @ x0
        solved = np.linalg.norm(start) <= KRYLOV_TOLERANCE * np.linalg.norm(rhs)
        assert (iterations == 0) == solved
        assert iterations <= KRYLOV_MAX_ITERATIONS

    @settings(max_examples=30, deadline=None)
    @given(system=systems())
    def test_preconditioner_applied_once_per_iteration(self, system):
        a, rhs, x0, neighbor = system
        psolve, calls = _counting(neighbor.solve)
        _, iterations, _ = _right_gmres(
            a, rhs, x0, psolve, KRYLOV_TOLERANCE, KRYLOV_MAX_ITERATIONS
        )
        assert len(calls) == iterations

    @settings(max_examples=15, deadline=None)
    @given(system=systems())
    def test_solved_start_costs_nothing(self, system):
        a, rhs, _, neighbor = system
        solved = spla.splu(a.tocsc()).solve(rhs)
        psolve, calls = _counting(neighbor.solve)
        x, iterations, residual = _right_gmres(
            a, rhs, solved, psolve, KRYLOV_TOLERANCE, KRYLOV_MAX_ITERATIONS
        )
        assert iterations == 0 and calls == []
        assert residual <= KRYLOV_TOLERANCE
        np.testing.assert_array_equal(x, solved)
        assert x is not solved

    @settings(max_examples=15, deadline=None)
    @given(system=systems())
    def test_own_lu_converges_in_one_iteration(self, system):
        a, rhs, _, _ = system
        own = spla.splu(a.tocsc())
        _, iterations, residual = _right_gmres(
            a, rhs, None, own.solve, KRYLOV_TOLERANCE, KRYLOV_MAX_ITERATIONS
        )
        assert iterations == 1
        assert residual <= KRYLOV_TOLERANCE


BROKEN_PRECONDITIONERS = {
    # M^-1 v = 0 makes the whole Hessenberg column zero: a zero
    # Givens denominator.
    "zero": np.zeros_like,
    "nan": lambda v: np.full_like(v, np.nan),
}


class TestBreakdownFallsBackToExact:
    @pytest.fixture
    def solvers(self):
        grid = _grid(8)
        flow = units.ml_per_minute(400.0)
        cache = NeighborFactorCache()
        KrylovSteadySolver(
            build_network(grid, ThermalParams(resistance_scale=4.2),
                          cavity_flows=[flow]),
            ThermalParams(resistance_scale=4.2), cache=cache,
        )
        target = build_network(grid, ThermalParams(), cavity_flows=[flow])
        power = grid.power_vector_from_array(np.full(grid.n_units, 3.0))
        krylov = KrylovSteadySolver(target, ThermalParams(), cache=cache)
        return krylov, SteadyStateSolver(target), power

    @pytest.mark.parametrize("bad_call", (0, 1))
    @pytest.mark.parametrize("kind", sorted(BROKEN_PRECONDITIONERS))
    def test_breakdown_answers_exactly(self, solvers, monkeypatch, kind, bad_call):
        krylov, exact, power = solvers
        neighbor = krylov._core._precond
        good, calls = neighbor.solve, []

        def broken(v):
            calls.append(1)
            if len(calls) > bad_call:
                return BROKEN_PRECONDITIONERS[kind](v)
            return good(v)

        monkeypatch.setattr(neighbor, "solve", broken)
        counts = Counters()
        temps = krylov.solve(power)
        stats = counts.krylov()
        assert stats["fallbacks"] == 1
        assert stats["iterations"] == bad_call + 1 == len(calls)
        assert counts.factorizations() == 0  # the store holds G's LU
        assert np.all(np.isfinite(temps))
        np.testing.assert_array_equal(temps, exact.solve(power))

    def test_nonfinite_warm_start_fails_the_residual_check(self, solvers):
        krylov, _, power = solvers
        a = krylov._core._matrix
        rhs = power + krylov.network.boundary
        x0 = np.full(a.shape[0], np.nan)
        _, _, residual = _right_gmres(
            a, rhs, x0, krylov._core._precond.solve,
            KRYLOV_TOLERANCE, KRYLOV_MAX_ITERATIONS,
        )
        assert not residual <= KRYLOV_TOLERANCE
