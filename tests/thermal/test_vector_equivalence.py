"""Equivalence suite: vectorized thermal hot path vs naive reference.

Pins the array-oriented substrate (PR 3) to the retained loop-based
reference implementations in ``tests/naive_thermal.py``:

* the unit<->cell operators (``power_vector_from_array``,
  ``unit_temperature_vector`` and its core rows, the maxima)
  agree *exactly* on random fields;
* the assembled CSR matrices (liquid 2/4-layer, air 2/4-layer) are
  bit-identical — same dense matrix, same boundary and capacitance
  vectors;
* the power map (``PowerModel.unit_power_vector``) matches the
  dict-keyed reference in ``tests/naive_power.py`` unit for unit;
* the retained field-space batch of the steady characterization (the
  reference ``tests/sim/test_unit_response.py`` holds the unit-space
  path to) matches sequential solves column-for-column.

Together with ``tests/sim/test_golden_runs.py`` (full-engine runs
pinned against pre-refactor fixtures) this verifies that no per-unit
or per-cell Python loop semantics changed while they were vectorized.
"""

import numpy as np
import pytest
from naive_power import naive_unit_powers
from naive_thermal import (
    naive_build_air,
    naive_build_liquid,
    naive_cavity_slab_index,
    naive_core_temperatures,
    naive_die_slab_index,
    naive_max_die_temperature,
    naive_max_unit_temperature,
    naive_power_vector,
    naive_steady_temperature_fields,
    naive_unit_cells,
    naive_unit_temperatures,
)

from repro import units
from repro.geometry.stack import CoolingKind, build_stack
from repro.microchannel.geometry import ChannelGeometry
from repro.microchannel.model import MicrochannelModel
from repro.power.components import CoreState, PowerModel
from repro.power.leakage import LeakageModel
from repro.sim.system import ThermalSystem
from repro.thermal.grid import ThermalGrid
from repro.thermal.package import AirPackage
from repro.thermal.rc_network import ThermalParams, build_network

FLOW = units.ml_per_minute(400.0)


@pytest.fixture(scope="module", params=["liquid2", "liquid4", "air2"])
def grid(request):
    return {
        "liquid2": lambda: ThermalGrid(build_stack(2, CoolingKind.LIQUID), nx=16, ny=16),
        "liquid4": lambda: ThermalGrid(build_stack(4, CoolingKind.LIQUID), nx=9, ny=13),
        "air2": lambda: ThermalGrid(build_stack(2, CoolingKind.AIR), nx=16, ny=16),
    }[request.param]()


class TestUnitCellOperators:
    def test_unit_cells_match(self, grid):
        for d, die in enumerate(grid.stack.dies):
            for unit in die.floorplan:
                np.testing.assert_array_equal(
                    grid.unit_cells(d, unit.name), naive_unit_cells(grid, d, unit.name)
                )

    def test_power_vector_exact(self, grid):
        rng = np.random.default_rng(42)
        keys = list(grid.unit_keys)
        for trial in range(5):
            # Mix of full maps and sparse subsets, including negatives.
            chosen = keys if trial == 0 else [
                k for k in keys if rng.random() < 0.6
            ]
            powers = {k: float(rng.normal(3.0, 2.0)) for k in chosen}
            p = np.array([powers.get(k, 0.0) for k in keys])
            vec = grid.power_vector_from_array(p)
            ref = naive_power_vector(grid, powers)
            assert np.array_equal(vec, ref)  # bitwise, no tolerance

    def test_power_vector_from_array_exact(self, grid):
        rng = np.random.default_rng(7)
        p = rng.normal(2.0, 1.0, grid.n_units)
        dense = grid.power_vector_from_array(p)
        ref = naive_power_vector(
            grid, {key: float(p[u]) for u, key in enumerate(grid.unit_keys)}
        )
        assert np.array_equal(dense, ref)

    def test_unit_temperatures_exact(self, grid):
        rng = np.random.default_rng(1)
        for _ in range(3):
            temps = rng.normal(70.0, 8.0, grid.n_nodes)
            got = grid.unit_temperature_vector(temps)
            ref = naive_unit_temperatures(grid, temps)
            assert set(grid.unit_keys) == set(ref)
            for u, key in enumerate(grid.unit_keys):
                assert got[u] == ref[key], key

    def test_core_temperatures_exact(self, grid):
        rng = np.random.default_rng(2)
        temps = rng.normal(70.0, 8.0, grid.n_nodes)
        got = grid.unit_temperature_vector(temps)[grid.core_index]
        ref = naive_core_temperatures(grid, temps)
        assert dict(zip(grid.stack.core_names(), got.tolist())) == ref

    def test_maxima_exact(self, grid):
        rng = np.random.default_rng(3)
        temps = rng.normal(70.0, 8.0, grid.n_nodes)
        assert grid.max_die_temperature(temps) == naive_max_die_temperature(grid, temps)
        assert grid.max_unit_temperature(temps) == naive_max_unit_temperature(grid, temps)

    def test_unit_temperature_consistent_with_vector(self, grid):
        rng = np.random.default_rng(4)
        temps = rng.normal(70.0, 8.0, grid.n_nodes)
        vec = grid.unit_temperature_vector(temps)
        for u, (d, name) in enumerate(grid.unit_keys):
            assert grid.unit_temperature(temps, d, name) == vec[u]

    def test_core_order_matches_stack(self, grid):
        assert [name for _, name in grid.core_keys] == grid.stack.core_names()

    def test_slab_lookups_match_linear_scan(self, grid):
        for d in range(grid.stack.n_dies):
            assert grid.die_slab_index(d) == naive_die_slab_index(grid, d)
        if grid.stack.cooling is CoolingKind.LIQUID:
            for c in range(grid.stack.n_cavities):
                assert grid.cavity_slab_index(c) == naive_cavity_slab_index(grid, c)


def _assert_networks_identical(a, b):
    ac, bc = a.conductance.tocsr(), b.conductance.tocsr()
    ac.sort_indices()
    bc.sort_indices()
    assert np.array_equal(ac.indptr, bc.indptr)
    assert np.array_equal(ac.indices, bc.indices)
    assert np.array_equal(ac.data, bc.data)  # bitwise
    assert np.array_equal(np.asarray(ac.todense()), np.asarray(bc.todense()))
    assert np.array_equal(a.boundary, b.boundary)
    assert np.array_equal(a.capacitance, b.capacitance)


class TestAssemblyEquivalence:
    @pytest.mark.parametrize("n_layers,nx,ny", [(2, 16, 16), (4, 9, 13)])
    def test_liquid_assembly_identical(self, n_layers, nx, ny):
        grid = ThermalGrid(build_stack(n_layers, CoolingKind.LIQUID), nx=nx, ny=ny)
        params = ThermalParams()
        model = MicrochannelModel(
            geometry=ChannelGeometry(length=grid.stack.width),
            die_height=grid.stack.height,
        )
        flows = tuple([FLOW] * grid.stack.n_cavities)
        vec = build_network(grid, params, cavity_flows=flows, channel_model=model)
        ref = naive_build_liquid(grid, params, flows, model)
        _assert_networks_identical(vec, ref)

    def test_liquid_assembly_zero_flow(self):
        grid = ThermalGrid(build_stack(2, CoolingKind.LIQUID), nx=8, ny=8)
        params = ThermalParams()
        model = MicrochannelModel(
            geometry=ChannelGeometry(length=grid.stack.width),
            die_height=grid.stack.height,
        )
        flows = (0.0, 0.0, 0.0)
        vec = build_network(grid, params, cavity_flows=flows, channel_model=model)
        ref = naive_build_liquid(grid, params, flows, model)
        _assert_networks_identical(vec, ref)

    @pytest.mark.parametrize("n_layers", [2, 4])
    def test_air_assembly_identical(self, n_layers):
        grid = ThermalGrid(build_stack(n_layers, CoolingKind.AIR), nx=16, ny=16)
        params = ThermalParams()
        package = AirPackage()
        vec = build_network(grid, params, package=package)
        ref = naive_build_air(grid, params, package)
        _assert_networks_identical(vec, ref)


class TestPowerVectorEquivalence:
    """``PowerModel.unit_power_vector`` is elementwise identical to the
    retained dict-keyed reference (``tests/naive_power.py``) for every
    state mix."""

    @staticmethod
    def _vector(model, grid, core_util, core_states, *args):
        names = grid.stack.core_names()
        return model.unit_power_vector(
            grid.unit_keys,
            [core_util[n] for n in names],
            [core_states[n] is CoreState.SLEEP for n in names],
            *args,
        )

    @pytest.mark.parametrize("n_layers", [2, 4])
    def test_vector_matches_dict(self, n_layers):
        grid = ThermalGrid(build_stack(n_layers, CoolingKind.LIQUID), nx=8, ny=8)
        model = PowerModel(grid.stack, leakage=LeakageModel())
        rng = np.random.default_rng(11)
        core_names = grid.stack.core_names()
        states_cycle = [CoreState.ACTIVE, CoreState.IDLE, CoreState.SLEEP]
        # Enough trials that a change in the active-fraction summation
        # order shows through the crossbar's rounding.
        for trial in range(60):
            core_util = {n: float(rng.uniform(0.0, 1.0)) for n in core_names}
            core_states = {
                n: states_cycle[(i + trial) % 3] for i, n in enumerate(core_names)
            }
            temps = rng.normal(70.0, 6.0, grid.n_units) if trial % 2 else None
            vec = self._vector(model, grid, core_util, core_states, 0.4, temps)
            ref = naive_unit_powers(
                model,
                core_util,
                core_states,
                0.4,
                dict(zip(grid.unit_keys, temps.tolist())) if temps is not None else None,
            )
            for u, key in enumerate(grid.unit_keys):
                assert vec[u] == ref[key], key

    def test_vector_without_leakage(self):
        grid = ThermalGrid(build_stack(2, CoolingKind.LIQUID), nx=8, ny=8)
        model = PowerModel(grid.stack, leakage=None)
        core_names = grid.stack.core_names()
        core_util = {n: 0.5 for n in core_names}
        core_states = {n: CoreState.ACTIVE for n in core_names}
        vec = self._vector(model, grid, core_util, core_states, 0.5)
        ref = naive_unit_powers(model, core_util, core_states, 0.5)
        for u, key in enumerate(grid.unit_keys):
            assert vec[u] == ref[key]


class TestBatchedCharacterization:
    # SuperLU applies blocked kernels to multiple right-hand sides, so
    # the batched path agrees with sequential solves to LU roundoff
    # (~1e-14 K on ~100 degC fields), not bitwise.
    def test_steady_fields_batch_matches_sequential(self):
        system = ThermalSystem(2, CoolingKind.LIQUID, nx=12, ny=12)
        model = PowerModel(system.stack, leakage=LeakageModel())
        utils = [0.0, 0.3, 0.7, 1.0]
        batch = naive_steady_temperature_fields(system, model, utils, setting_index=2)
        for c, u in enumerate(utils):
            single = system.steady_temperatures(model, u, setting_index=2)
            np.testing.assert_allclose(batch[c], single, rtol=0.0, atol=1.0e-10)

    def test_steady_tmax_batch_matches_scalar(self):
        system = ThermalSystem(2, CoolingKind.LIQUID, nx=12, ny=12)
        model = PowerModel(system.stack, leakage=LeakageModel())
        utils = [0.2, 0.8]
        batch = system.steady_tmax_batch(model, utils, setting_index=1)
        for c, u in enumerate(utils):
            assert batch[c] == pytest.approx(
                system.steady_tmax(model, u, setting_index=1), abs=1.0e-10
            )
