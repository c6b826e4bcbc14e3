"""Krylov solver tier: neighbor preconditioning, fallbacks, failures."""

import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from repro import units
from repro.errors import SolverError
from repro.geometry.stack import build_stack
from repro.thermal.grid import ThermalGrid
from repro.thermal import solver as solver_module
from repro.thermal.rc_network import ThermalParams, build_network
from repro.thermal.solver import (
    KRYLOV_TEMPERATURE_TOLERANCE,
    KrylovSteadySolver,
    KrylovTransientSolver,
    NeighborFactorCache,
    SteadyStateSolver,
    TransientSolver,
    medoid,
    params_distance,
    structure_signature,
    _params_vector,
)

from counters import Counters
from helpers import power_vector

FLOW = units.ml_per_minute(400.0)


@pytest.fixture(scope="module")
def grid():
    return ThermalGrid(build_stack(2), nx=8, ny=8)


def _network(grid, **param_overrides):
    return build_network(
        grid, ThermalParams(**param_overrides), cavity_flows=[FLOW]
    )


@pytest.fixture(scope="module")
def net(grid):
    return _network(grid)


@pytest.fixture(scope="module")
def power(net):
    return power_vector(net.grid, {(0, f"core{i}"): 3.0 for i in range(8)})


def _singular(net, zero_capacitance=False):
    """A structurally intact but numerically singular network."""
    singular = sp.csr_matrix(net.conductance.shape)
    capacitance = (
        np.zeros_like(net.capacitance) if zero_capacitance else net.capacitance
    )
    return replace(net, conductance=singular, capacitance=capacitance)


class TestNeighborFactorCache:
    def test_capacity_validated(self):
        with pytest.raises(SolverError):
            NeighborFactorCache(capacity=0)

    def test_exact_hit_and_miss(self, net):
        # The exact design point is the neighbor at distance 0.0; any
        # other params are strictly farther.
        cache = NeighborFactorCache()
        structure = structure_signature(net)
        params = ThermalParams()
        assert cache.nearest(structure, _params_vector(params)) is None
        lu = TransientSolver(net, dt=0.1)._core
        cache.retain(structure, params, lu)
        assert cache.nearest(structure, _params_vector(params)) == (lu, 0.0)
        other = ThermalParams(resistance_scale=2.0)
        _, dist = cache.nearest(structure, _params_vector(other))
        assert dist > 0.0

    def test_nearest_picks_closest(self, net):
        cache = NeighborFactorCache()
        structure = structure_signature(net)
        lu_far = TransientSolver(net, dt=0.1)._core
        lu_near = TransientSolver(net, dt=0.1)._core
        cache.retain(structure, ThermalParams(resistance_scale=9.0), lu_far)
        cache.retain(structure, ThermalParams(resistance_scale=5.0), lu_near)
        hit = cache.nearest(structure, _params_vector(ThermalParams()))
        assert hit is not None
        lu, dist = hit
        assert lu is lu_near
        assert dist == pytest.approx(
            params_distance(
                _params_vector(ThermalParams(resistance_scale=5.0)),
                _params_vector(ThermalParams()),
            )
        )

    def test_nearest_respects_structure(self, net):
        cache = NeighborFactorCache()
        cache.retain(("other",), ThermalParams(), TransientSolver(net, dt=0.1)._core)
        assert cache.nearest(structure_signature(net), _params_vector(ThermalParams())) is None

    def test_lru_eviction(self, net):
        cache = NeighborFactorCache(capacity=2)
        structure = structure_signature(net)
        lu = TransientSolver(net, dt=0.1)._core
        oldest = ThermalParams(resistance_scale=1.0)
        middle = ThermalParams(resistance_scale=2.0)
        cache.retain(structure, oldest, lu)
        cache.retain(structure, middle, lu)
        # Touch the oldest so the middle entry becomes LRU.
        assert cache.nearest(structure, _params_vector(oldest)) == (lu, 0.0)
        cache.retain(structure, ThermalParams(resistance_scale=3.0), lu)
        assert len(cache) == 2
        assert cache.nearest(structure, _params_vector(oldest)) == (lu, 0.0)
        _, dist = cache.nearest(structure, _params_vector(middle))
        assert dist > 0.0

    def test_distance_is_scale_free(self):
        a = _params_vector(ThermalParams())
        assert params_distance(a, a) == 0.0
        b = _params_vector(ThermalParams(resistance_scale=2.0))
        assert params_distance(a, b) > 0.0

    def test_inlet_only_neighbor_is_at_distance_zero(self, grid):
        # The inlet moves only the boundary vector: an inlet-only
        # neighbor has the identical matrix, so its LU solves direct.
        a = _params_vector(ThermalParams())
        c = _params_vector(ThermalParams(inlet_temperature=120.0))
        assert params_distance(a, c) == 0.0
        warm = _network(grid, inlet_temperature=120.0)
        cold = _network(grid)
        assert (warm.conductance != cold.conductance).nnz == 0


class TestMedoid:
    def test_centre_of_a_line_sweep(self):
        points = [ThermalParams(resistance_scale=4.0 + 0.06 * i) for i in range(5)]
        assert medoid(points) == 2

    def test_tie_goes_to_the_first_submitted(self):
        points = [ThermalParams(resistance_scale=s) for s in (5.0, 4.0)]
        assert medoid(points) == 0

    def test_repeated_operators_count_once(self):
        # Seeds or inlets repeat an operator; the centre is over the
        # distinct operators, at each one's first index.
        scales = (4.0, 4.0, 4.0, 4.0, 4.1, 4.2, 4.2)
        points = [
            ThermalParams(resistance_scale=s, inlet_temperature=40.0 + i)
            for i, s in enumerate(scales)
        ]
        assert medoid(points) == 4

    def test_lone_operator_has_no_medoid(self):
        points = [ThermalParams(inlet_temperature=t) for t in (45.0, 55.0, 65.0)]
        assert medoid(points) is None
        assert medoid([]) is None


class TestKrylovTransient:
    def test_first_point_factorizes_and_matches_exact(self, net, power):
        cache = NeighborFactorCache()
        counts = Counters()
        krylov = KrylovTransientSolver(net, 0.1, ThermalParams(), cache=cache)
        assert counts.factorizations() == 1
        assert len(cache) == 1
        exact = TransientSolver(net, 0.1)
        state = np.full(net.n_nodes, 60.0)
        # With its own LU the krylov solver solves directly: bitwise.
        np.testing.assert_array_equal(
            krylov.step(state, power), exact.step(state, power)
        )

    def test_neighbor_preconditioning_avoids_factorization(self, grid, power):
        cache = NeighborFactorCache()
        seed_params = ThermalParams(resistance_scale=4.2)
        KrylovTransientSolver(_network(grid, resistance_scale=4.2), 0.1,
                              seed_params, cache=cache)
        target = _network(grid)
        counts = Counters()
        krylov = KrylovTransientSolver(target, 0.1, ThermalParams(), cache=cache)
        assert counts.factorizations() == 0
        assert counts.krylov()["preconditioner_hits"] == 1
        exact = TransientSolver(target, 0.1)
        state = np.full(target.n_nodes, 60.0)
        out_k, out_e = krylov.step(state, power), exact.step(state, power)
        # A neighbor (not the design point itself) preconditions GMRES.
        stats = counts.krylov()
        assert stats["gmres_solves"] == 1
        assert stats["direct_solves"] == 0
        assert stats["fallbacks"] == 0
        assert np.abs(out_k - out_e).max() < KRYLOV_TEMPERATURE_TOLERANCE

    def test_exact_design_point_reuses_lu_bitwise(self, net, power):
        cache = NeighborFactorCache()
        first = KrylovTransientSolver(net, 0.1, ThermalParams(), cache=cache)
        counts = Counters()
        again = KrylovTransientSolver(net, 0.1, ThermalParams(), cache=cache)
        assert counts.factorizations() == 0
        state = np.full(net.n_nodes, 60.0)
        np.testing.assert_array_equal(
            again.step(state, power), first.step(state, power)
        )

    def test_fallback_records_and_matches_exact(self, grid, power, monkeypatch):
        # A distant neighbor plus a one-iteration budget cannot reach
        # the residual floor: the solver must fall back to its own
        # exact factorization, record it, and answer bitwise-exactly.
        monkeypatch.setattr(solver_module, "KRYLOV_MAX_ITERATIONS", 1)
        cache = NeighborFactorCache()
        KrylovTransientSolver(_network(grid, resistance_scale=12.0), 0.1,
                              ThermalParams(resistance_scale=12.0), cache=cache)
        target = _network(grid)
        counts = Counters()
        krylov = KrylovTransientSolver(target, 0.1, ThermalParams(), cache=cache)
        assert counts.krylov()["fallbacks"] == 0
        state = np.full(target.n_nodes, 60.0)
        out = krylov.step(state, power)
        assert counts.factorizations() == 1
        assert counts.krylov()["fallbacks"] == 1
        np.testing.assert_array_equal(
            out, TransientSolver(target, 0.1).step(state, power)
        )
        # The fallback LU is retained: subsequent steps are direct and
        # do not fall back again.
        krylov.step(state, power)
        assert counts.krylov()["fallbacks"] == 1

    def test_run_converges_to_steady_state(self, grid, power):
        cache = NeighborFactorCache()
        KrylovTransientSolver(_network(grid, resistance_scale=4.2), 0.1,
                              ThermalParams(resistance_scale=4.2), cache=cache)
        target = _network(grid)
        krylov = KrylovTransientSolver(target, 0.1, ThermalParams(), cache=cache)
        steady = SteadyStateSolver(target).solve(power)
        final = krylov.run(np.full(target.n_nodes, 60.0), power, 100)
        assert np.allclose(final, steady, atol=0.05)

    def test_validations(self, net):
        cache = NeighborFactorCache()
        with pytest.raises(SolverError):
            KrylovTransientSolver(net, 0.0, ThermalParams(), cache=cache)
        solver = KrylovTransientSolver(net, 0.1, ThermalParams(), cache=cache)
        with pytest.raises(SolverError):
            solver.step(np.zeros(3), np.zeros(3))


class TestKrylovSteady:
    def test_matches_exact_solver(self, grid, power):
        cache = NeighborFactorCache()
        seed_net = _network(grid, resistance_scale=4.2)
        KrylovSteadySolver(seed_net, ThermalParams(resistance_scale=4.2),
                           cache=cache)
        target = _network(grid)
        counts = Counters()
        krylov = KrylovSteadySolver(target, ThermalParams(), cache=cache)
        assert counts.factorizations() == 0
        exact = SteadyStateSolver(target)
        diff = np.abs(krylov.solve(power) - exact.solve(power)).max()
        assert diff < KRYLOV_TEMPERATURE_TOLERANCE
        # Warm-started second solve stays within tolerance too.
        diff = np.abs(krylov.solve(0.5 * power) - exact.solve(0.5 * power)).max()
        assert diff < KRYLOV_TEMPERATURE_TOLERANCE

    def test_solve_many_matches_solve(self, grid, power):
        cache = NeighborFactorCache()
        KrylovSteadySolver(_network(grid, resistance_scale=4.2),
                           ThermalParams(resistance_scale=4.2), cache=cache)
        target = _network(grid)
        krylov = KrylovSteadySolver(target, ThermalParams(), cache=cache)
        exact = SteadyStateSolver(target)
        powers = np.stack([power, 0.25 * power], axis=1)
        block = krylov.solve_many(powers)
        expected = exact.solve_many(powers)
        assert np.abs(block - expected).max() < KRYLOV_TEMPERATURE_TOLERANCE

    def test_gmres_applies_the_preconditioner_once_per_iteration(
        self, grid, power, monkeypatch
    ):
        # Right preconditioning: one application per Arnoldi step, none
        # for the initial residual or the update (Z = M^-1 V is kept).
        cache = NeighborFactorCache()
        KrylovSteadySolver(_network(grid, resistance_scale=4.2),
                           ThermalParams(resistance_scale=4.2), cache=cache)
        krylov = KrylovSteadySolver(_network(grid), ThermalParams(), cache=cache)
        neighbor = krylov._core._precond
        lu_solve = neighbor.solve
        applications = []

        def counting(rhs):
            applications.append(1)
            return lu_solve(rhs)

        monkeypatch.setattr(neighbor, "solve", counting)
        counts = Counters()
        krylov.solve(power)
        stats = counts.krylov()
        assert stats["gmres_solves"] == 1
        assert stats["iterations"] > 0
        assert len(applications) == stats["iterations"]

    def test_shape_check(self, net):
        krylov = KrylovSteadySolver(net, ThermalParams(),
                                    cache=NeighborFactorCache())
        with pytest.raises(SolverError):
            krylov.solve(np.zeros(3))
        with pytest.raises(SolverError):
            krylov.solve_many(np.zeros((3, 2)))


class TestSingularNetworks:
    """Failure paths: a singular system must raise SolverError, never
    return garbage, in every solver tier."""

    def test_steady_exact_raises(self, net):
        with pytest.raises(SolverError):
            SteadyStateSolver(_singular(net))

    def test_transient_exact_raises(self, net):
        with pytest.raises(SolverError):
            TransientSolver(_singular(net, zero_capacitance=True), dt=0.1)

    def test_steady_krylov_raises(self, net):
        with pytest.raises(SolverError):
            KrylovSteadySolver(_singular(net), ThermalParams(),
                               cache=NeighborFactorCache())

    def test_transient_krylov_raises(self, net):
        with pytest.raises(SolverError):
            KrylovTransientSolver(
                _singular(net, zero_capacitance=True), 0.1, ThermalParams(),
                cache=NeighborFactorCache(),
            )

    def test_negative_capacitance_raises(self, net):
        bad = replace(net, capacitance=-np.ones_like(net.capacitance))
        with pytest.raises(SolverError):
            KrylovTransientSolver(bad, 0.1, ThermalParams(),
                                  cache=NeighborFactorCache())


class TestCounterThreadSafety:
    def test_concurrent_factorizations_all_counted(self, grid):
        # Each thread factorizes its own fresh network; the counter
        # must account for every one (the increment is lock-guarded).
        n_threads = 8
        nets = [_network(grid, resistance_scale=1.0 + 0.01 * i)
                for i in range(n_threads)]
        counts = Counters()
        barrier = threading.Barrier(n_threads)

        def build(net):
            barrier.wait()
            TransientSolver(net, dt=0.1)

        threads = [threading.Thread(target=build, args=(n,)) for n in nets]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counts.factorizations() == n_threads
