"""Steady fields from the kept unit-response fields, and what warm-up keeps.

On the exact tier a steady field is ``Phi p + phi``: ``Phi = G^-1 S`` and
``phi = G^-1 b`` are the fields ``ThermalSystem.unit_response`` reads
``R`` and ``base`` from, and ``p`` the powers of the unit-space leakage
loop's last iteration. A system keeps the pair of its start setting
only, so a warmed system starts its runs with no steady LU and no
steady solve. The krylov tier and Figure 5's per-flow networks iterate
on field solves, bitwise as before the loop became one.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments import fig5
from repro.geometry.stack import CoolingKind
from repro.power.components import PowerModel
from repro.runner import BatchRunner
from repro.sim.cache import (
    CharacterizationCache,
    clear_system_memo,
    power_model_for,
    system_for,
)
from repro.sim.config import CoolingMode, PolicyKind, SimulationConfig
from repro.sim.system import ThermalSystem
from repro.telemetry import metrics, trace
from repro.thermal.rc_network import ThermalParams
from repro.thermal.solver import SteadyStateSolver, clear_neighbor_cache

from counters import Counters


def _digest(*arrays) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(np.asarray(array, dtype=float)).tobytes())
    return hasher.hexdigest()[:16]


def _pair(n, **kwargs):
    system = ThermalSystem(2, CoolingKind.LIQUID, nx=n, ny=n, **kwargs)
    return system, PowerModel(system.stack)


@pytest.fixture(scope="module", params=(16, 32), ids=lambda n: f"{n}x{n}")
def pair(request):
    return _pair(request.param)


@pytest.fixture
def tracing():
    trace.enable(capacity=4096)
    trace.clear()
    yield
    trace.disable()
    trace.clear()


def _steady_spans():
    return [e for e in trace.events() if e["name"] == "steady"]


class TestAffineField:
    @pytest.mark.parametrize("utilization", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("setting", [0, 4], ids=["setting0", "top"])
    def test_matches_a_solved_field(self, pair, setting, utilization):
        """``Phi p + phi`` is the field one steady solve of the same
        powers gives."""
        system, model = pair
        field = system.steady_temperatures(model, utilization, setting)
        load = system._uniform_load(utilization)
        powers, _, _ = system._unit_fixed_point(model, [load], setting, 0.5)
        solved = SteadyStateSolver(system.network(setting)).solve(
            system.grid.power_vector_from_array(powers[0])
        )
        assert np.abs(field - solved).max() <= 1.0e-12

    def test_start_fields_are_kept_read_only_and_shared_by_inlets(self):
        (first, _), (second, _) = (
            _pair(16, params=ThermalParams(inlet_temperature=t)) for t in (45.0, 75.0)
        )
        top = first.start_setting
        for system in (first, second):
            system.unit_response(top)
            system.unit_response(0)
        (phi_map, phi), (phi_map2, phi2) = first._start_fields, second._start_fields
        assert phi_map is phi_map2  # one Phi per steady matrix
        assert phi_map.shape == (first.grid.n_nodes, first.grid.n_units)
        assert not np.array_equal(phi, phi2)  # phi carries the boundary
        with pytest.raises(ValueError):
            phi_map[0, 0] = 0.0
        with pytest.raises(ValueError):
            phi[0] = 0.0


class TestWarmedSystemsHoldNoSteadyLU:
    @pytest.mark.parametrize(
        "cooling", [CoolingMode.LIQUID_VARIABLE, CoolingMode.LIQUID_MAX, CoolingMode.AIR]
    )
    def test_initial_field_needs_no_lu_and_no_solve(self, cooling, tracing):
        clear_system_memo()
        config = SimulationConfig(
            nx=16, ny=16, cooling=cooling, policy=PolicyKind.TALB, duration=0.5
        )
        CharacterizationCache().warm([config])
        system = system_for(config)
        model = power_model_for(config, system)
        assert system._steadies == {}
        trace.clear()
        counts = Counters()
        field = system.initial_temperatures(
            model, config.spec.utilization, system.start_setting
        )
        assert counts.factorizations() == 0
        assert _steady_spans() == []
        assert system._steadies == {}
        assert field.shape == (system.grid.n_nodes,)
        clear_system_memo()


class TestResidualGauge:
    def test_sixth_iteration_moves_units_by_under_10_mk(self):
        """The worst case the ``LEAKAGE_ITERATIONS`` docstring measures:
        75 degC inlet, the lowest setting, full load."""
        system, model = _pair(16, params=ThermalParams(inlet_temperature=75.0))
        system.steady_tmax(model, 1.0, setting_index=0)
        residual = metrics.gauge("sim.leakage.residual").value()
        assert 0.0 < residual < 0.01


class TestFieldSolvedLoopsAreUnchanged:
    """Digests recorded before the field-space and unit-space loops became
    one: the krylov tier's initial fields and Figure 5's per-flow T_max
    did not move by a bit."""

    KRYLOV_INITIAL = {
        CoolingMode.LIQUID_VARIABLE: "6b746759dd386dc0",
        CoolingMode.AIR: "bb731938a40f3cae",
    }
    FIG5_TMAX = ("0x1.2a3e7f4b1751fp+6", "0x1.4498a70a6f943p+6", "0x1.6628aa790de10p+6")

    def test_krylov_initial_fields(self):
        clear_system_memo()
        clear_neighbor_cache()
        try:
            for cooling, expected in self.KRYLOV_INITIAL.items():
                config = SimulationConfig(nx=16, ny=16, solver="krylov", cooling=cooling)
                system = system_for(config)
                model = power_model_for(config, system)
                field = system.initial_temperatures(
                    model, config.spec.utilization, system.start_setting
                )
                assert _digest(field) == expected, cooling
        finally:
            clear_system_memo()
            clear_neighbor_cache()

    def test_fig5_tmax_at_flow(self):
        system, model = _pair(16)
        got = tuple(
            fig5._steady_tmax_at_flow(system, model, u, 3.0e-6).hex()
            for u in (0.1, 0.5, 1.0)
        )
        assert got == self.FIG5_TMAX


def _krylov_sweep(n_points):
    """More distinct krylov systems than the system memo holds."""
    return [
        SimulationConfig(
            nx=8, ny=8, duration=0.2, policy=PolicyKind.TALB,
            cooling=CoolingMode.LIQUID_MAX, solver="krylov",
            thermal_params=ThermalParams(resistance_scale=4.0 + 0.06 * i),
        )
        for i in range(n_points)
    ]


class TestRewarmBuildsNoSystem:
    def test_second_warm_builds_nothing(self):
        clear_system_memo()
        configs = _krylov_sweep(6)
        cache = CharacterizationCache().warm(configs)
        counts = Counters()
        cache.warm(configs)
        assert counts.delta("cache.system.misses") == 0
        assert counts.delta("cache.system.hits") == 0
        clear_system_memo()
        clear_neighbor_cache()

    def test_batch_after_warm_builds_each_system_once_more(self):
        """Set-up warm-up builds each system once and the runs once
        again (the memo holds four); the batch's own warm-up none."""
        clear_system_memo()
        configs = _krylov_sweep(6)
        counts = Counters()
        cache = CharacterizationCache().warm(configs)
        list(BatchRunner(configs, cache=cache).iter_runs())
        assert counts.delta("cache.system.misses") == 2 * len(configs)
        clear_system_memo()
        clear_neighbor_cache()

    def test_a_missing_artifact_still_builds(self):
        clear_system_memo()
        lb = SimulationConfig(nx=8, ny=8, duration=0.2, policy=PolicyKind.LB)
        cache = CharacterizationCache().warm([lb])
        talb = SimulationConfig(nx=8, ny=8, duration=0.2, policy=PolicyKind.TALB)
        before = len(cache.weight_sets)
        counts = Counters()
        cache.warm([talb])
        assert counts.delta("cache.system.hits") == 1
        system = system_for(talb)
        assert len(cache.weight_sets) == before + system.pump.n_settings
        clear_system_memo()
