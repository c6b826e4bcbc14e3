"""Floorplans for the UltraSPARC T1-based 3D systems (paper Figure 1).

The paper stacks layers of 115 mm^2 each: one kind of layer carries the
eight 10 mm^2 cores, the other carries the four 19 mm^2 L2 cache banks
(one shared L2 per two cores). Both layer kinds have a central crossbar
block that hosts the 128 through-silicon vias (TSVs) connecting adjacent
tiers, plus "other" units (memory control, buffering) filling the rest.

Figure 1 is not published in machine-readable form, so the builders here
lay the blocks out to match every published area exactly (cores 10 mm^2,
L2 19 mm^2, layer 115 mm^2, central crossbar); the placement itself is
an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from repro import units
from repro.constants import STACK
from repro.errors import GeometryError


class UnitKind(Enum):
    """Functional kind of a floorplan unit."""

    CORE = "core"
    L2 = "l2"
    CROSSBAR = "crossbar"
    MISC = "misc"


@dataclass(frozen=True)
class Unit:
    """A rectangular floorplan block.

    Coordinates follow the usual floorplan convention: ``(x, y)`` is the
    lower-left corner, the x axis points along the microchannel flow
    direction, and all lengths are in metres.
    """

    name: str
    kind: UnitKind
    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0.0 or self.height <= 0.0:
            raise GeometryError(
                f"unit {self.name!r} has non-positive size "
                f"{self.width} x {self.height}"
            )
        if self.x < 0.0 or self.y < 0.0:
            raise GeometryError(f"unit {self.name!r} has negative origin")

    @property
    def area(self) -> float:
        """Block area in m^2."""
        return self.width * self.height

    @property
    def x2(self) -> float:
        """Right edge."""
        return self.x + self.width

    @property
    def y2(self) -> float:
        """Top edge."""
        return self.y + self.height

    @property
    def center(self) -> tuple[float, float]:
        """Geometric centre ``(x, y)``."""
        return (self.x + 0.5 * self.width, self.y + 0.5 * self.height)

    def overlaps(self, other: "Unit") -> bool:
        """Whether this block overlaps ``other`` with positive area."""
        return not (
            self.x2 <= other.x
            or other.x2 <= self.x
            or self.y2 <= other.y
            or other.y2 <= self.y
        )


class Floorplan:
    """A set of non-overlapping units tiling a rectangular die.

    Parameters
    ----------
    name:
        Human-readable layer name (e.g. ``"t1-cores"``).
    width, height:
        Die dimensions in metres.
    units:
        The blocks. They must not overlap; full coverage is checked to a
        relative tolerance because the paper's block areas tile the die
        exactly.
    """

    def __init__(
        self,
        name: str,
        width: float,
        height: float,
        units: list[Unit],
        coverage_rtol: float = 1.0e-6,
    ) -> None:
        if width <= 0.0 or height <= 0.0:
            raise GeometryError(f"floorplan {name!r} has non-positive dimensions")
        if not units:
            raise GeometryError(f"floorplan {name!r} has no units")
        self.name = name
        self.width = width
        self.height = height
        self.units = list(units)
        self._validate(coverage_rtol)
        self._by_name = {u.name: u for u in self.units}
        if len(self._by_name) != len(self.units):
            raise GeometryError(f"floorplan {name!r} has duplicate unit names")

    def _validate(self, coverage_rtol: float) -> None:
        for unit in self.units:
            if unit.x2 > self.width * (1 + coverage_rtol) or unit.y2 > self.height * (
                1 + coverage_rtol
            ):
                raise GeometryError(
                    f"unit {unit.name!r} extends outside floorplan {self.name!r}"
                )
        for i, a in enumerate(self.units):
            for b in self.units[i + 1 :]:
                if a.overlaps(b):
                    raise GeometryError(
                        f"units {a.name!r} and {b.name!r} overlap in {self.name!r}"
                    )
        covered = sum(u.area for u in self.units)
        total = self.width * self.height
        if not math.isclose(covered, total, rel_tol=1.0e-3):
            raise GeometryError(
                f"floorplan {self.name!r} covers {covered:.3e} of {total:.3e} m^2; "
                "units must tile the die"
            )

    # --- queries -----------------------------------------------------------

    @property
    def area(self) -> float:
        """Die area in m^2."""
        return self.width * self.height

    def unit(self, name: str) -> Unit:
        """Look a unit up by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise GeometryError(f"no unit {name!r} in floorplan {self.name!r}")

    def units_of_kind(self, kind: UnitKind) -> list[Unit]:
        """All units of the given kind, in insertion order."""
        return [u for u in self.units if u.kind is kind]

    def __iter__(self) -> Iterator[Unit]:
        return iter(self.units)

    def __len__(self) -> int:
        return len(self.units)

    # --- rasterization -------------------------------------------------------

    def rasterize(self, nx: int, ny: int) -> np.ndarray:
        """Map an ``nx`` x ``ny`` grid of cells to unit indices.

        Each cell is assigned to the unit containing its centre. Returns
        an int array of shape ``(ny, nx)`` whose entries index
        ``self.units``. Cells whose centre falls in no unit (possible
        only through floating-point edge effects) are assigned to the
        nearest unit centre.
        """
        if nx <= 0 or ny <= 0:
            raise GeometryError("grid dimensions must be positive")
        cell_w = self.width / nx
        cell_h = self.height / ny
        xc = (np.arange(nx) + 0.5) * cell_w
        yc = (np.arange(ny) + 0.5) * cell_h
        xg = xc[None, :]
        yg = yc[:, None]
        out = np.full((ny, nx), -1, dtype=np.int64)
        # Units never overlap, so per-unit box masks are disjoint and
        # assignment order does not matter.
        for idx, unit in enumerate(self.units):
            inside = (
                (xg >= unit.x) & (xg < unit.x2) & (yg >= unit.y) & (yg < unit.y2)
            )
            out[inside] = idx
        orphan = out < 0
        if np.any(orphan):
            cx = np.array([u.center[0] for u in self.units])
            cy = np.array([u.center[1] for u in self.units])
            ox = np.broadcast_to(xg, (ny, nx))[orphan]
            oy = np.broadcast_to(yg, (ny, nx))[orphan]
            dists = (ox[:, None] - cx[None, :]) ** 2 + (oy[:, None] - cy[None, :]) ** 2
            out[orphan] = np.argmin(dists, axis=1)
        return out


# --- UltraSPARC T1-like layer builders (Figure 1) ------------------------------


def _chip_side() -> float:
    """Side length of the square 115 mm^2 die."""
    return math.sqrt(STACK.layer_area)


def t1_core_layer(name: str = "t1-cores", core_offset: int = 0) -> Floorplan:
    """Build the core layer: 8 cores, central crossbar, misc blocks.

    Layout (matching all published areas; the placement is assumed)::

        +------+------+------+------+   4 cores, 10 mm^2 each
        | c0   | c1   | c2   | c3   |
        +------+---+-------+--+-----+
        | misc_l   | XBAR     | misc_r |  central band (crossbar holds TSVs)
        +------+---+-------+--+-----+
        | c4   | c5   | c6   | c7   |   4 cores, 10 mm^2 each
        +------+------+------+------+

    ``core_offset`` shifts the core numbering, so the 4-layer (16-core)
    system can name its second core layer's cores ``core8..core15``.
    """
    side = _chip_side()
    core_w = side / 4.0
    core_h = STACK.core_area / core_w
    band_h = side - 2.0 * core_h
    if band_h <= 0.0:
        raise GeometryError("core rows exceed die height")
    xbar_w = side / 2.0
    xbar_x = (side - xbar_w) / 2.0

    blocks: list[Unit] = []
    for i in range(4):
        blocks.append(
            Unit(f"core{core_offset + i}", UnitKind.CORE, i * core_w, 0.0, core_w, core_h)
        )
    for i in range(4):
        blocks.append(
            Unit(
                f"core{core_offset + 4 + i}",
                UnitKind.CORE,
                i * core_w,
                core_h + band_h,
                core_w,
                core_h,
            )
        )
    blocks.append(Unit("misc_l", UnitKind.MISC, 0.0, core_h, xbar_x, band_h))
    blocks.append(Unit("xbar", UnitKind.CROSSBAR, xbar_x, core_h, xbar_w, band_h))
    blocks.append(
        Unit("misc_r", UnitKind.MISC, xbar_x + xbar_w, core_h, side - xbar_x - xbar_w, band_h)
    )
    return Floorplan(name, side, side, blocks)


def t1_cache_layer(name: str = "t1-caches", l2_offset: int = 0) -> Floorplan:
    """Build the cache layer: 4 L2 banks, central crossbar, misc blocks.

    Layout::

        +-----------+-----------+      2 L2 banks, 19 mm^2 each
        |   l2_0    |   l2_1    |
        +------+----+-------+---+
        | misc_l |  XBAR  | misc_r |   central band (crossbar holds TSVs)
        +------+----+-------+---+
        |   l2_2    |   l2_3    |      2 L2 banks, 19 mm^2 each
        +-----------+-----------+
    """
    side = _chip_side()
    l2_w = side / 2.0
    l2_h = STACK.l2_area / l2_w
    band_h = side - 2.0 * l2_h
    if band_h <= 0.0:
        raise GeometryError("L2 rows exceed die height")
    xbar_w = side / 2.0
    xbar_x = (side - xbar_w) / 2.0

    blocks: list[Unit] = []
    for i in range(2):
        blocks.append(Unit(f"l2_{l2_offset + i}", UnitKind.L2, i * l2_w, 0.0, l2_w, l2_h))
    for i in range(2):
        blocks.append(
            Unit(f"l2_{l2_offset + 2 + i}", UnitKind.L2, i * l2_w, l2_h + band_h, l2_w, l2_h)
        )
    blocks.append(Unit("misc_l", UnitKind.MISC, 0.0, l2_h, xbar_x, band_h))
    blocks.append(Unit("xbar", UnitKind.CROSSBAR, xbar_x, l2_h, xbar_w, band_h))
    blocks.append(
        Unit("misc_r", UnitKind.MISC, xbar_x + xbar_w, l2_h, side - xbar_x - xbar_w, band_h)
    )
    return Floorplan(name, side, side, blocks)
