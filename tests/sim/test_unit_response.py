"""Unit-space steady characterization vs the retained field-space loop.

``ThermalSystem.unit_response`` turns the leakage fixed point behind the
flow table, the burst floor and ``steady_tmax`` into small matvecs: the
steady unit temperatures are affine in the unit powers. The results must
match the field loop in ``tests/naive_thermal.py`` to roundoff, and the
table and floor built from them must decide exactly as the reference
does. The krylov tier holds the same bound it holds for fields.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.flow_table import FlowRateTable
from repro.geometry.stack import CoolingKind
from repro.power.components import PowerModel
from repro.power.leakage import LeakageModel
from repro.sim.cache import CharacterizationCache
from repro.sim.config import CoolingMode, SimulationConfig
from repro.sim.system import ThermalSystem
from repro.telemetry import trace
from repro.thermal.rc_network import ThermalParams
from repro.thermal.solver import (
    KRYLOV_TEMPERATURE_TOLERANCE,
    clear_lu_store,
    clear_neighbor_cache,
)

from counters import Counters
from naive_thermal import naive_steady_tmax_batch, naive_steady_tmax_concentrated

TOLERANCE = 1.0e-9
"""Unit space vs fields (K); the two differ by ~7e-12 K at 48x48."""

N_SETTINGS = 5
N_CORES = 8
RESPONSES = "sim.characterize.unit_responses{kind=%s}"


def _pair(n, **kwargs):
    system = ThermalSystem(2, CoolingKind.LIQUID, nx=n, ny=n, **kwargs)
    return system, PowerModel(system.stack, leakage=LeakageModel())


@pytest.fixture(scope="module", params=(16, 32), ids=lambda n: f"{n}x{n}")
def pair(request):
    return _pair(request.param)


class TestMatchesFieldLoop:
    @settings(max_examples=25, deadline=None)
    @given(
        utilization=st.floats(min_value=0.0, max_value=1.0),
        memory_intensity=st.floats(min_value=0.0, max_value=1.0),
        setting=st.integers(min_value=0, max_value=N_SETTINGS - 1),
    )
    def test_uniform_tmax(self, pair, utilization, memory_intensity, setting):
        system, model = pair
        expected = naive_steady_tmax_batch(
            system, model, [utilization], setting, memory_intensity
        )[0]
        batch = system.steady_tmax_batch(model, [utilization], setting, memory_intensity)
        single = system.steady_tmax(model, utilization, setting, memory_intensity)
        assert abs(batch[0] - expected) <= TOLERANCE
        assert abs(single - expected) <= TOLERANCE

    @settings(max_examples=25, deadline=None)
    @given(
        n_active=st.integers(min_value=1, max_value=N_CORES),
        memory_intensity=st.floats(min_value=0.0, max_value=1.0),
        setting=st.integers(min_value=0, max_value=N_SETTINGS - 1),
    )
    def test_concentrated_tmax(self, pair, n_active, memory_intensity, setting):
        system, model = pair
        expected = naive_steady_tmax_concentrated(
            system, model, setting, n_active, memory_intensity
        )
        got = system.steady_tmax_concentrated(model, setting, n_active, memory_intensity)
        assert abs(got - expected) <= TOLERANCE


class TestSameDecisions:
    def test_table_and_floor(self, pair):
        system, model = pair
        n = system.grid.nx
        config = SimulationConfig(nx=n, ny=n, cooling=CoolingMode.LIQUID_VARIABLE)
        cache = CharacterizationCache()
        table = cache.table(system, config)
        target = config.target_temperature - config.characterization_guard
        reference = FlowRateTable.characterize(
            steady_tmax_batch=lambda k, utils: naive_steady_tmax_batch(
                system, model, utils, k
            ),
            n_settings=system.pump.n_settings,
            per_cavity_flows=system.pump.per_cavity_flows(),
            target=target,
        )
        np.testing.assert_allclose(
            table.char.tmax, reference.char.tmax, rtol=0.0, atol=TOLERANCE
        )
        for u in np.linspace(0.0, 1.0, 1001):
            got = table.required_setting_for_utilization(u)
            assert got == reference.required_setting_for_utilization(u), u
        reference_floor = next(
            (
                k
                for k in range(system.pump.n_settings)
                if naive_steady_tmax_concentrated(system, model, k)
                <= config.target_temperature - 0.5
            ),
            system.pump.n_settings - 1,
        )
        assert cache.floor(system, config) == reference_floor


INLETS = (45.0, 55.0, 65.0, 75.0)


def _inlet_systems(n, inlets=INLETS, **kwargs):
    """One ``(system, model)`` per inlet temperature: the systems differ
    only in the boundary vector, so they share every steady matrix."""
    return [
        _pair(n, params=ThermalParams(inlet_temperature=inlet), **kwargs)
        for inlet in inlets
    ]


def _responses(systems):
    """``[setting][system] -> (base, R)``."""
    return [[system.unit_response(k) for system, _ in systems] for k in range(N_SETTINGS)]


@pytest.fixture(scope="module", params=(16, 32), ids=lambda n: f"{n}x{n}")
def inlet_sweep(request):
    """Four inlet systems characterized from a cleared LU store, their
    responses and the response/base counter deltas."""
    clear_lu_store()
    systems = _inlet_systems(request.param)
    counts = Counters()
    responses = _responses(systems)
    deltas = {kind: counts.delta(RESPONSES % kind) for kind in ("response", "base")}
    return systems, responses, deltas


class TestInletSweepSharesR:
    """Inlets move only the boundary vector: one ``R`` per setting on the
    shared steady LU, one ``base`` per system, the field loop's answers."""

    def test_one_r_object_per_setting_and_a_base_per_system(self, inlet_sweep):
        _, responses, deltas = inlet_sweep
        for per_system in responses:
            (first_base, first_r), *rest = per_system
            for base, r in rest:
                assert r is first_r
                assert not np.array_equal(base, first_base)
        assert deltas == {"response": N_SETTINGS, "base": len(INLETS) * N_SETTINGS}

    def test_tables_and_floors_match_field_loop(self, inlet_sweep):
        systems, _, _ = inlet_sweep
        for system, model in systems:
            n = system.grid.nx
            config = SimulationConfig(
                nx=n, ny=n, cooling=CoolingMode.LIQUID_VARIABLE,
                thermal_params=system.params,
            )
            cache = CharacterizationCache()
            table = cache.table(system, config)
            reference = FlowRateTable.characterize(
                steady_tmax_batch=lambda k, utils: naive_steady_tmax_batch(
                    system, model, utils, k
                ),
                n_settings=system.pump.n_settings,
                per_cavity_flows=system.pump.per_cavity_flows(),
                target=config.target_temperature - config.characterization_guard,
            )
            np.testing.assert_allclose(
                table.char.tmax, reference.char.tmax, rtol=0.0, atol=TOLERANCE
            )
            for u in np.linspace(0.0, 1.0, 1001):
                got = table.required_setting_for_utilization(u)
                assert got == reference.required_setting_for_utilization(u), u
            reference_floor = next(
                (
                    k
                    for k in range(system.pump.n_settings)
                    if naive_steady_tmax_concentrated(system, model, k)
                    <= config.target_temperature - 0.5
                ),
                system.pump.n_settings - 1,
            )
            assert cache.floor(system, config) == reference_floor

    def test_r_is_bitwise_the_same_whichever_inlet_solves_it(self, inlet_sweep):
        systems, responses, _ = inlet_sweep
        clear_lu_store()  # fresh LUs: the last inlet now solves R first
        reversed_systems = _inlet_systems(systems[0][0].grid.nx, INLETS[::-1])
        again = _responses(reversed_systems)
        for first, second in zip(responses, again):
            assert second[0][1] is not first[0][1]
            np.testing.assert_array_equal(second[0][1], first[0][1])
            for (base, _), (base_again, _) in zip(first, second[::-1]):
                np.testing.assert_array_equal(base_again, base)


class TestKrylovRStaysOnTheKrylovTier:
    """A krylov core's unpivoted LU never reaches the exact tier."""

    def test_exact_system_solves_its_own_r(self):
        clear_lu_store()
        clear_neighbor_cache()
        try:
            # An empty neighbor pool: the krylov core factorizes its own
            # G through the LU store, unpivoted.
            [(krylov, _)] = _inlet_systems(16, INLETS[:1], solver="krylov")
            krylov_r = [krylov.unit_response(k)[1] for k in range(N_SETTINGS)]
            counts = Counters()
            [(exact, _)] = _inlet_systems(16, INLETS[1:2])
            exact_r = [exact.unit_response(k)[1] for k in range(N_SETTINGS)]
            assert counts.delta(RESPONSES % "response") == N_SETTINGS
            assert counts.factorizations() == N_SETTINGS
            for k in range(N_SETTINGS):
                krylov_lu = krylov.steady_solver(k)._core._lu
                exact_lu = exact.steady_solver(k)._core
                assert krylov_lu.ordering == "symmetric"
                assert exact_lu.ordering == "pivoted"
                assert exact_lu is not krylov_lu
                assert exact_r[k] is not krylov_r[k]
            # Free the exact LUs; the krylov ones stay in the store.
            del exact, exact_lu
            gc.collect()
            counts = Counters()
            [(fresh, _)] = _inlet_systems(16, INLETS[1:2])
            for k in range(N_SETTINGS):
                np.testing.assert_array_equal(fresh.unit_response(k)[1], exact_r[k])
            assert counts.factorizations() == N_SETTINGS
        finally:
            clear_neighbor_cache()


class TestKrylovTier:
    @pytest.fixture
    def neighbors(self):
        clear_neighbor_cache()
        yield
        clear_neighbor_cache()

    def test_within_krylov_tolerance(self, pair, neighbors):
        exact, model = pair
        n = exact.grid.nx
        near = ThermalParams().resistance_scale * 1.015
        seed, _ = _pair(n, solver="krylov", params=ThermalParams(resistance_scale=near))
        for k in range(N_SETTINGS):
            seed.steady_solver(k)  # retains each setting's LU as a neighbor
        krylov = ThermalSystem(2, CoolingKind.LIQUID, nx=n, ny=n, solver="krylov")
        counts = Counters()
        utils = np.linspace(0.0, 1.0, 11)
        for k in range(N_SETTINGS):
            got = krylov.steady_tmax_batch(model, utils, k)
            expected = naive_steady_tmax_batch(exact, model, utils, k)
            assert np.abs(got - expected).max() < KRYLOV_TEMPERATURE_TOLERANCE
            for n_active in range(1, N_CORES + 1):
                got = krylov.steady_tmax_concentrated(model, k, n_active)
                expected = naive_steady_tmax_concentrated(exact, model, k, n_active)
                assert abs(got - expected) < KRYLOV_TEMPERATURE_TOLERANCE
        stats = counts.krylov()
        assert stats["gmres_solves"] == N_SETTINGS * (exact.grid.n_units + 1)
        assert stats["fallbacks"] == 0


class TestMemo:
    @pytest.fixture
    def tracing(self):
        trace.enable(capacity=4096)
        trace.clear()
        yield
        trace.disable()
        trace.clear()

    @staticmethod
    def _steady_spans():
        return [e for e in trace.events() if e["name"] == "steady"]

    def test_one_solve_per_setting_then_none(self, tracing):
        """Per setting: one ``R`` block of ``n_units`` columns and one
        ``base`` column; a repeat table solves nothing."""
        clear_lu_store()  # fresh steady LUs: no response memoized on them
        system, model = _pair(16)
        config = SimulationConfig(nx=16, ny=16, cooling=CoolingMode.LIQUID_VARIABLE)
        settings = system.pump.n_settings
        counts = Counters()
        cache = CharacterizationCache()
        cache.table(system, config)
        cache.floor(system, config)
        widths = sorted(s["attrs"]["n_rhs"] for s in self._steady_spans())
        assert widths == [1] * settings + [system.grid.n_units] * settings
        assert counts.delta(RESPONSES % "response") == settings
        assert counts.delta(RESPONSES % "base") == settings

        trace.clear()
        counts = Counters()
        CharacterizationCache().table(system, config)
        assert self._steady_spans() == []
        assert counts.delta(RESPONSES % "response") == 0
        assert counts.delta(RESPONSES % "base") == 0

    def test_memoized_and_read_only(self):
        system, _ = _pair(16)
        base, response = system.unit_response(2)
        assert response.shape == (system.grid.n_units, system.grid.n_units)
        again = system.unit_response(2)
        assert again[0] is base and again[1] is response
        with pytest.raises(ValueError):
            base[0] = 0.0
        with pytest.raises(ValueError):
            response[0, 0] = 0.0
