"""Floorplan geometry: T1-like layers, rasterization, validation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.constants import STACK
from repro.errors import GeometryError
from repro.geometry.floorplan import (
    Floorplan,
    Unit,
    UnitKind,
    t1_cache_layer,
    t1_core_layer,
)


class TestUnit:
    def test_area(self):
        u = Unit("u", UnitKind.MISC, 0.0, 0.0, 2.0e-3, 5.0e-3)
        assert u.area == pytest.approx(1.0e-5)

    def test_overlap_detection(self):
        a = Unit("a", UnitKind.MISC, 0.0, 0.0, 1.0, 1.0)
        b = Unit("b", UnitKind.MISC, 0.5, 0.5, 1.0, 1.0)
        c = Unit("c", UnitKind.MISC, 1.0, 0.0, 1.0, 1.0)
        assert a.overlaps(b)
        assert not a.overlaps(c)  # Shared edge is not an overlap.

    def test_rejects_non_positive_size(self):
        with pytest.raises(GeometryError):
            Unit("bad", UnitKind.MISC, 0.0, 0.0, 0.0, 1.0)

    def test_rejects_negative_origin(self):
        with pytest.raises(GeometryError):
            Unit("bad", UnitKind.MISC, -0.1, 0.0, 1.0, 1.0)

    def test_center(self):
        u = Unit("u", UnitKind.MISC, 1.0, 2.0, 2.0, 4.0)
        assert u.center == (2.0, 4.0)

    def test_far_edges(self):
        u = Unit("u", UnitKind.MISC, 1.0, 2.0, 2.0, 4.0)
        assert (u.x2, u.y2) == (3.0, 6.0)


class TestCoreLayer:
    def test_core_count(self):
        assert len(t1_core_layer().units_of_kind(UnitKind.CORE)) == 8

    def test_core_area_matches_table3(self):
        for core in t1_core_layer().units_of_kind(UnitKind.CORE):
            assert core.area == pytest.approx(STACK.core_area, rel=1e-6)

    def test_layer_area_matches_table3(self):
        assert t1_core_layer().area == pytest.approx(STACK.layer_area, rel=1e-6)

    def test_units_tile_layer(self):
        fp = t1_core_layer()
        assert sum(u.area for u in fp) == pytest.approx(fp.area, rel=1e-6)

    def test_has_central_crossbar(self):
        fp = t1_core_layer()
        xbars = fp.units_of_kind(UnitKind.CROSSBAR)
        assert len(xbars) == 1
        cx, cy = xbars[0].center
        assert cx == pytest.approx(fp.width / 2, rel=1e-6)
        assert cy == pytest.approx(fp.height / 2, rel=1e-6)

    def test_core_offset_renames(self):
        fp = t1_core_layer(core_offset=8)
        names = {u.name for u in fp.units_of_kind(UnitKind.CORE)}
        assert names == {f"core{i}" for i in range(8, 16)}


class TestCacheLayer:
    def test_l2_count(self):
        assert len(t1_cache_layer().units_of_kind(UnitKind.L2)) == 4

    def test_l2_area_matches_table3(self):
        for bank in t1_cache_layer().units_of_kind(UnitKind.L2):
            assert bank.area == pytest.approx(STACK.l2_area, rel=1e-6)

    def test_layer_area(self):
        assert t1_cache_layer().area == pytest.approx(STACK.layer_area, rel=1e-6)

    def test_crossbars_align_between_layers(self):
        """TSVs must line up vertically: both crossbars sit centred."""
        core_xbar = t1_core_layer().unit("xbar")
        cache_xbar = t1_cache_layer().unit("xbar")
        assert core_xbar.x == pytest.approx(cache_xbar.x, rel=1e-6)
        assert core_xbar.width == pytest.approx(cache_xbar.width, rel=1e-6)


class TestFloorplanValidation:
    def test_rejects_overlapping_units(self):
        blocks = [
            Unit("a", UnitKind.MISC, 0.0, 0.0, 1.0, 1.0),
            Unit("b", UnitKind.MISC, 0.5, 0.0, 1.0, 1.0),
        ]
        with pytest.raises(GeometryError, match="overlap"):
            Floorplan("bad", 1.5, 1.0, blocks)

    def test_rejects_unit_outside(self):
        blocks = [Unit("a", UnitKind.MISC, 0.0, 0.0, 2.0, 1.0)]
        with pytest.raises(GeometryError, match="outside"):
            Floorplan("bad", 1.0, 1.0, blocks)

    def test_rejects_incomplete_coverage(self):
        blocks = [Unit("a", UnitKind.MISC, 0.0, 0.0, 0.5, 1.0)]
        with pytest.raises(GeometryError, match="tile"):
            Floorplan("bad", 1.0, 1.0, blocks)

    def test_rejects_duplicate_names(self):
        blocks = [
            Unit("a", UnitKind.MISC, 0.0, 0.0, 0.5, 1.0),
            Unit("a", UnitKind.MISC, 0.5, 0.0, 0.5, 1.0),
        ]
        with pytest.raises(GeometryError, match="duplicate"):
            Floorplan("bad", 1.0, 1.0, blocks)

    def test_rejects_empty(self):
        with pytest.raises(GeometryError):
            Floorplan("bad", 1.0, 1.0, [])

    def test_unknown_unit_lookup(self):
        with pytest.raises(GeometryError, match="no unit"):
            t1_core_layer().unit("does-not-exist")


class TestRasterize:
    @pytest.mark.parametrize("fp", [t1_core_layer(), t1_cache_layer()])
    @pytest.mark.parametrize("n", [8, 16, 21])
    def test_all_cells_assigned(self, fp, n):
        raster = fp.rasterize(n, n)
        assert raster.shape == (n, n)
        assert raster.min() >= 0
        assert raster.max() < len(fp.units)

    def test_every_unit_gets_cells_at_16(self):
        fp = t1_core_layer()
        raster = fp.rasterize(16, 16)
        assert set(np.unique(raster)) == set(range(len(fp.units)))

    @given(st.integers(min_value=12, max_value=40))
    def test_cell_fractions_approximate_area_fractions(self, n):
        fp = t1_core_layer()
        raster = fp.rasterize(n, n)
        fractions = np.bincount(raster.ravel(), minlength=len(fp.units)) / (n * n)
        for unit, fraction in zip(fp.units, fractions):
            assert fraction == pytest.approx(unit.area / fp.area, abs=0.08)

    def test_cell_at_each_core_centre_maps_to_that_core(self):
        """The raster answers "which unit is at (x, y)" for the grid."""
        fp = t1_core_layer()
        n = 32
        raster = fp.rasterize(n, n)
        for index, unit in enumerate(fp.units):
            if unit.kind is not UnitKind.CORE:
                continue
            x, y = unit.center
            row = int(y / fp.height * n)
            col = int(x / fp.width * n)
            assert raster[row, col] == index, unit.name

    def test_rejects_bad_dimensions(self):
        with pytest.raises(GeometryError):
            t1_core_layer().rasterize(0, 4)
