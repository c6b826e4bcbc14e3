"""Thermal grid node layout and unit/cell mapping."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry.stack import CoolingKind, build_stack
from repro.thermal.grid import SlabKind, ThermalGrid

from helpers import power_vector


@pytest.fixture
def liquid_grid():
    return ThermalGrid(build_stack(2), nx=12, ny=12)


@pytest.fixture
def air_grid():
    return ThermalGrid(build_stack(2, CoolingKind.AIR), nx=12, ny=12)


class TestSlabStructure:
    def test_liquid_slab_sequence(self, liquid_grid):
        kinds = [s.kind for s in liquid_grid.slabs]
        assert kinds == [
            SlabKind.CAVITY,
            SlabKind.DIE,
            SlabKind.CAVITY,
            SlabKind.DIE,
            SlabKind.CAVITY,
        ]

    def test_air_slab_sequence(self, air_grid):
        kinds = [s.kind for s in air_grid.slabs]
        assert kinds == [SlabKind.DIE, SlabKind.INTERFACE, SlabKind.DIE]

    def test_liquid_node_count(self, liquid_grid):
        assert liquid_grid.n_nodes == 5 * 12 * 12

    def test_air_node_count_includes_package(self, air_grid):
        assert air_grid.n_nodes == 3 * 12 * 12 + 2  # + spreader + sink.

    def test_four_layer_liquid(self):
        grid = ThermalGrid(build_stack(4), nx=8, ny=8)
        assert len(grid.slabs) == 9  # 4 dies + 5 cavities.
        assert len(grid.cavity_slab_indices()) == 5

    def test_rejects_tiny_grid(self):
        with pytest.raises(GeometryError):
            ThermalGrid(build_stack(2), nx=1, ny=8)


class TestNodeIndexing:
    def test_node_bijection(self, liquid_grid):
        seen = set()
        for s in range(len(liquid_grid.slabs)):
            for j in range(12):
                for i in range(12):
                    seen.add(liquid_grid.node(s, i, j))
        assert len(seen) == liquid_grid.n_nodes

    def test_node_out_of_range(self, liquid_grid):
        with pytest.raises(GeometryError):
            liquid_grid.node(0, 12, 0)

    def test_slab_nodes_shape(self, liquid_grid):
        nodes = liquid_grid.slab_nodes(1)
        assert nodes.shape == (12, 12)
        assert nodes[0, 0] == liquid_grid.node(1, 0, 0)
        assert nodes[3, 5] == liquid_grid.node(1, 5, 3)

    def test_die_slab_lookup(self, liquid_grid):
        assert liquid_grid.die_slab_index(0) == 1
        assert liquid_grid.die_slab_index(1) == 3
        with pytest.raises(GeometryError):
            liquid_grid.die_slab_index(2)

    def test_cavity_slab_lookup(self, liquid_grid):
        assert liquid_grid.cavity_slab_index(0) == 0
        assert liquid_grid.cavity_slab_index(2) == 4


class TestPowerMapping:
    def test_power_vector_conserves_power(self, liquid_grid):
        powers = {(0, "core0"): 3.0, (0, "core5"): 2.0, (1, "l2_1"): 1.28}
        p = power_vector(liquid_grid, powers)
        assert p.sum() == pytest.approx(6.28)

    def test_power_lands_on_die_slab(self, liquid_grid):
        p = power_vector(liquid_grid, {(0, "core0"): 3.0})
        die_nodes = liquid_grid.slab_nodes(liquid_grid.die_slab_index(0)).ravel()
        assert p[die_nodes].sum() == pytest.approx(3.0)
        other = np.setdiff1d(np.arange(liquid_grid.n_nodes), die_nodes)
        assert np.all(p[other] == 0.0)

    def test_unit_cells_non_empty_for_all_units(self, liquid_grid):
        for d, die in enumerate(liquid_grid.stack.dies):
            for unit in die.floorplan:
                cells = liquid_grid.unit_cells(d, unit.name)
                assert cells.size > 0

    def test_unknown_unit(self, liquid_grid):
        with pytest.raises(GeometryError):
            liquid_grid.unit_cells(0, "nope")


class TestTemperatureExtraction:
    def test_unit_temperature_is_mean(self, liquid_grid):
        temps = np.zeros(liquid_grid.n_nodes)
        cells = liquid_grid.unit_cells(0, "core0")
        temps[cells] = 42.0
        assert liquid_grid.unit_temperature(temps, 0, "core0") == pytest.approx(42.0)

    def test_core_temperatures_keys(self, liquid_grid):
        temps = np.full(liquid_grid.n_nodes, 50.0)
        cores = liquid_grid.unit_temperature_vector(temps)[liquid_grid.core_index]
        assert [name for _, name in liquid_grid.core_keys] == [f"core{i}" for i in range(8)]
        assert cores.tolist() == [50.0] * 8

    def test_max_die_ge_max_unit(self, liquid_grid):
        rng = np.random.default_rng(0)
        temps = rng.uniform(40.0, 90.0, liquid_grid.n_nodes)
        assert liquid_grid.max_die_temperature(
            temps
        ) >= liquid_grid.max_unit_temperature(temps)

    def test_die_temperature_field_shape(self, liquid_grid):
        temps = np.arange(liquid_grid.n_nodes, dtype=float)
        field = liquid_grid.die_temperature_field(temps, 0)
        assert field.shape == (12, 12)
