"""ASCII temperature-map rendering."""

import numpy as np
import pytest

from repro import units
from repro.errors import ConfigurationError
from repro.geometry.stack import build_stack
from repro.thermal.ascii_map import render_die, render_field, render_stack
from repro.thermal.grid import ThermalGrid
from repro.thermal.rc_network import ThermalParams, build_network
from repro.thermal.solver import SteadyStateSolver

from helpers import power_vector


class TestRenderField:
    def test_shape(self):
        field = np.linspace(60.0, 90.0, 12).reshape(3, 4)
        art = render_field(field)
        lines = art.splitlines()
        assert len(lines) == 4  # 3 rows + scale legend.
        assert all(len(line) == 4 for line in lines[:3])

    def test_hot_cells_get_heavy_glyphs(self):
        field = np.array([[60.0, 90.0]])
        art = render_field(field).splitlines()[0]
        assert art[0] == " "
        assert art[1] == "@"

    def test_row_zero_printed_last(self):
        field = np.array([[90.0], [60.0]])  # Row 0 hot, row 1 cool.
        lines = render_field(field).splitlines()
        assert lines[0] == " "   # Top row (index 1) first.
        assert lines[1] == "@"   # Bottom row (index 0) last.

    def test_constant_field_does_not_crash(self):
        art = render_field(np.full((2, 2), 70.0))
        assert "70.0" in art

    def test_common_scale(self):
        field = np.array([[70.0]])
        art = render_field(field, t_min=60.0, t_max=90.0)
        assert "60.0" in art and "90.0" in art

    def test_rejects_non_2d(self):
        with pytest.raises(ConfigurationError):
            render_field(np.ones(5))


class TestRenderDieAndStack:
    @pytest.fixture(scope="class")
    def solved(self):
        grid = ThermalGrid(build_stack(2), nx=8, ny=8)
        net = build_network(
            grid, ThermalParams(), cavity_flows=[units.ml_per_minute(300.0)]
        )
        p = power_vector(grid, {(0, f"core{i}"): 3.0 for i in range(8)})
        return grid, SteadyStateSolver(net).solve(p)

    def test_render_die_has_header(self, solved):
        grid, temps = solved
        art = render_die(grid, temps, 0)
        assert art.startswith("--- die 0")
        assert "left->right" in art

    def test_render_stack_covers_all_dies(self, solved):
        grid, temps = solved
        art = render_stack(grid, temps)
        assert "die 0" in art and "die 1" in art

    def test_core_die_hotter_than_cache_die(self, solved):
        """On a shared scale the powered core die uses heavier glyphs."""
        grid, temps = solved
        art = render_stack(grid, temps)
        die0, die1 = art.split("\n\n")
        heavy = set("#%@")
        count0 = sum(ch in heavy for ch in die0)
        count1 = sum(ch in heavy for ch in die1)
        assert count0 > count1
