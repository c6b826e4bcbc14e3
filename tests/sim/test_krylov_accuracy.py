"""Krylov-vs-exact accuracy and factorization-reuse guarantees.

``TestKrylovAccuracySmoke`` is the CI-gating accuracy smoke: a small
``thermal_params`` sweep run through both solver tiers must agree
within the documented :data:`KRYLOV_TEMPERATURE_TOLERANCE`, and the
krylov campaign must perform strictly fewer LU factorizations than it
has design points (the whole point of the tier).
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runner import BatchRunner
from repro.sim.cache import CharacterizationCache, clear_system_memo
from repro.sim.config import CoolingMode, SimulationConfig
from repro.sim.system import ThermalSystem
from repro.thermal.rc_network import ThermalParams
from repro.thermal.solver import (
    KRYLOV_TEMPERATURE_TOLERANCE,
    KrylovSteadySolver,
    KrylovTransientSolver,
    SteadyStateSolver,
    TransientSolver,
    clear_neighbor_cache,
)

from counters import Counters

N_POINTS = 6


def _sweep_configs(solver: str) -> list:
    """A thermal-parameter sweep where every design point is a distinct
    network: RR policy + Max cooling keep characterization out of the
    picture, so the factorization counters measure the solvers alone."""
    return [
        SimulationConfig(
            policy="RR",
            cooling=CoolingMode.LIQUID_MAX,
            nx=16,
            ny=16,
            duration=2.0,
            solver=solver,
            thermal_params=ThermalParams(resistance_scale=4.0 + 0.1 * i),
        )
        for i in range(N_POINTS)
    ]


def _campaign(solver: str):
    """Run the sweep cold; returns (results, factorizations, stats delta)."""
    clear_system_memo()
    clear_neighbor_cache()
    counts = Counters()
    batch = BatchRunner(_sweep_configs(solver), cache=CharacterizationCache())
    results = [run.result for run in batch.iter_runs()]
    return results, counts.factorizations(), counts.krylov()


class TestKrylovAccuracySmoke:
    """CI-gating: krylov agrees with exact and reuses factorizations."""

    @pytest.fixture(scope="class")
    def campaigns(self):
        exact = _campaign("exact")
        krylov = _campaign("krylov")
        clear_system_memo()
        clear_neighbor_cache()
        return exact, krylov

    def test_max_temperature_within_documented_tolerance(self, campaigns):
        (exact_results, _, _), (krylov_results, _, _) = campaigns
        worst = 0.0
        for e, k in zip(exact_results, krylov_results):
            worst = max(worst, float(np.abs(e.tmax - k.tmax).max()))
            worst = max(
                worst,
                float(np.abs(e.unit_temperatures - k.unit_temperatures).max()),
            )
        assert worst < KRYLOV_TEMPERATURE_TOLERANCE

    def test_krylov_factorizes_fewer_than_design_points(self, campaigns):
        (_, exact_f, _), (_, krylov_f, stats) = campaigns
        # Exact pays steady + transient per distinct network.
        assert exact_f == 2 * N_POINTS
        # Krylov factorizes the first design point only; every later
        # point preconditions off it.
        assert krylov_f < N_POINTS
        assert stats["preconditioner_hits"] > 0
        assert stats["fallbacks"] == 0

    def test_exact_campaign_never_iterates(self, campaigns):
        (_, _, exact_stats), _ = campaigns
        assert exact_stats["gmres_solves"] == 0
        assert exact_stats["direct_solves"] == 0


class TestKrylovVariableFlow:
    def test_var_controller_stays_close_to_exact(self):
        # The controller quantizes pump settings, so bitwise agreement
        # is not guaranteed under Var — but the trajectories must stay
        # well inside the 2 K hysteresis band of each other.
        def run(solver):
            clear_system_memo()
            clear_neighbor_cache()
            config = SimulationConfig(
                policy="RR", nx=16, ny=16, duration=2.0, solver=solver
            )
            batch = BatchRunner([config], cache=CharacterizationCache())
            return list(batch.iter_runs())[0].result

        exact, krylov = run("exact"), run("krylov")
        assert float(np.abs(exact.tmax - krylov.tmax).max()) < 0.5
        np.testing.assert_array_equal(exact.flow_setting, krylov.flow_setting)


class TestInletNeighbors:
    def test_inlet_sweep_solves_direct(self):
        # Inlets share G and C, so the second and third inlets find the
        # first's LUs at distance 0.0 and never iterate.
        clear_system_memo()
        clear_neighbor_cache()
        configs = [
            SimulationConfig(
                policy="RR", cooling=CoolingMode.LIQUID_MAX, solver="krylov",
                nx=16, ny=16, duration=0.5,
                thermal_params=ThermalParams(inlet_temperature=inlet),
            )
            for inlet in (45.0, 55.0, 65.0)
        ]
        counts = Counters()
        list(BatchRunner(configs, cache=CharacterizationCache()).iter_runs())
        krylov = counts.krylov()
        clear_system_memo()
        clear_neighbor_cache()
        assert krylov["gmres_solves"] == 0
        assert krylov["direct_solves"] == 3 * (6 + 5)
        assert counts.factorizations() == 2


class TestSolverModeSelection:
    def test_config_validates_solver(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(solver="superlu")

    def test_system_validates_solver(self):
        with pytest.raises(ConfigurationError):
            ThermalSystem(nx=4, ny=4, solver="superlu")

    def test_system_returns_mode_matched_solvers(self):
        clear_neighbor_cache()
        exact_sys = ThermalSystem(nx=4, ny=4)
        # The krylov classes subclass the exact ones: check the type.
        assert type(exact_sys.transient_solver(0, 0.1)) is TransientSolver
        assert type(exact_sys.steady_solver(0)) is SteadyStateSolver
        krylov_sys = ThermalSystem(nx=4, ny=4, solver="krylov")
        assert isinstance(
            krylov_sys.transient_solver(0, 0.1), KrylovTransientSolver
        )
        assert isinstance(krylov_sys.steady_solver(0), KrylovSteadySolver)
        clear_neighbor_cache()
