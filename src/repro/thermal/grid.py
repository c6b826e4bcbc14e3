"""Spatial discretization of a 3D stack into a grid RC node layout.

The stack is sliced into *slabs* (bottom to top): active dies, coolant
cavities (liquid cooling), or thin interface layers (air cooling). Every
slab carries an ``nx`` x ``ny`` grid of nodes; an air-cooled stack adds
two lumped package nodes (heat spreader and heat sink) on top.

The paper uses 100 um grid cells; for a 10.7 mm die that is a 107x107
grid per slab. The cell size is fully configurable and the network
assembly is resolution-independent; the per-interval hot path is
array-oriented so paper-resolution grids stay practical.

Vector-native hot path
----------------------
``ThermalGrid`` precomputes, at construction, a stable unit ordering
(:attr:`unit_keys`, sorted ``(die_index, unit_name)`` tuples) together
with cached unit<->cell operators:

* a *scatter* mapping (conceptually the sparse matrix ``S`` of shape
  ``n_nodes x n_units`` whose column ``u`` is uniform ``1/count_u`` over
  unit ``u``'s cells), applied by :meth:`power_vector_from_array` as a
  gather of per-unit quotients so each cell receives exactly
  ``watts / count`` with one IEEE division — bit-identical to the
  historical per-unit loop;
* a *mean-gather* operator (the sparse summing matrix ``M_sum`` of
  shape ``n_units x n_nodes``; row ``u`` is 1 over unit ``u``'s cells),
  so :meth:`unit_temperature_vector` is one sparse matvec plus an
  elementwise division by the cell counts.

Every per-unit quantity is an array aligned to :attr:`unit_keys` (and
per-core readings to ``stack.core_names()``); there are no dict forms
and no per-unit or per-cell Python loops in the per-interval path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from repro.constants import STACK
from repro.errors import GeometryError
from repro.geometry.floorplan import UnitKind
from repro.geometry.stack import CoolingKind, Stack3D


class SlabKind(Enum):
    """Kind of one horizontal slice of the stack."""

    DIE = "die"
    CAVITY = "cavity"
    INTERFACE = "interface"


@dataclass(frozen=True)
class Slab:
    """One horizontal slice of the stack.

    ``die_index`` / ``cavity_index`` number the slab within its kind
    (-1 when not applicable).
    """

    kind: SlabKind
    name: str
    thickness: float
    die_index: int = -1
    cavity_index: int = -1


class ThermalGrid:
    """Node layout for a stack: slabs x (ny x nx) grid (+ package nodes).

    Parameters
    ----------
    stack:
        The 3D stack to discretize.
    nx, ny:
        Grid cells along x (the channel flow direction) and y.

    Attributes
    ----------
    slabs:
        Bottom-to-top slab descriptors.
    rasters:
        For each die index, an ``(ny, nx)`` array of unit indices into
        that die's floorplan (cell centre assignment).
    unit_keys:
        Stable unit ordering: sorted ``(die_index, unit_name)`` tuples.
        All vector-native APIs are aligned to this order.
    n_units:
        ``len(unit_keys)``.
    core_keys:
        ``(die_index, core_name)`` for every core unit, bottom die
        first, in floorplan order — the same order as
        ``stack.core_names()``.
    core_index:
        Positions of :attr:`core_keys` within :attr:`unit_keys`, as an
        index array (``unit_vector[core_index]`` gives per-core values).
    unit_cell_counts:
        Grid cells assigned to each unit, aligned to :attr:`unit_keys`.
    unit_operator_digest:
        sha256 of the node count and every unit's cells: two grids with
        the same digest have bitwise-equal scatter and mean-gather
        operators, so results derived from them can be shared.
    layout_key:
        Hashable content identity of everything network assembly reads
        from the grid; part of the key under which
        :func:`repro.thermal.rc_network.build_network` shares ``G``
        and ``C``.
    """

    def __init__(self, stack: Stack3D, nx: int = 16, ny: int = 16) -> None:
        if nx < 2 or ny < 2:
            raise GeometryError("thermal grid needs at least 2x2 cells")
        self.stack = stack
        self.nx = nx
        self.ny = ny
        self.cell_w = stack.width / nx
        self.cell_h = stack.height / ny
        self.cell_area = self.cell_w * self.cell_h
        self.slabs: list[Slab] = self._build_slabs()
        self.rasters: list[np.ndarray] = [
            die.floorplan.rasterize(nx, ny) for die in stack.dies
        ]
        # Resolution, slabs, die outlines and units: grids with equal keys
        # assemble bitwise-equal networks, whatever objects built them.
        self.layout_key: tuple = (
            nx,
            ny,
            stack.cooling,
            tuple(self.slabs),
            tuple(
                (die.floorplan.width, die.floorplan.height, tuple(die.floorplan.units))
                for die in stack.dies
            ),
        )
        self._cells_per_slab = nx * ny
        self.has_package = stack.cooling is CoolingKind.AIR
        n_grid = len(self.slabs) * self._cells_per_slab
        if self.has_package:
            self.spreader_node = n_grid
            self.sink_node = n_grid + 1
            self.n_nodes = n_grid + 2
        else:
            self.spreader_node = -1
            self.sink_node = -1
            self.n_nodes = n_grid

        # O(1) slab lookups (these used to be linear scans called from
        # the inner assembly loops).
        self._die_slab: dict[int, int] = {}
        self._cavity_slab: dict[int, int] = {}
        for s, slab in enumerate(self.slabs):
            if slab.kind is SlabKind.DIE:
                self._die_slab[slab.die_index] = s
            elif slab.kind is SlabKind.CAVITY:
                self._cavity_slab[slab.cavity_index] = s
        self._die_slab_list = sorted(self._die_slab.values())
        self._cavity_slab_list = sorted(self._cavity_slab.values())

        self._build_unit_operators()

    def _build_slabs(self) -> list[Slab]:
        slabs: list[Slab] = []
        if self.stack.cooling is CoolingKind.LIQUID:
            for d, die in enumerate(self.stack.dies):
                slabs.append(
                    Slab(
                        SlabKind.CAVITY,
                        f"cavity{d}",
                        STACK.interlayer_thickness_with_channels,
                        cavity_index=d,
                    )
                )
                slabs.append(
                    Slab(SlabKind.DIE, die.floorplan.name, die.thickness, die_index=d)
                )
            slabs.append(
                Slab(
                    SlabKind.CAVITY,
                    f"cavity{self.stack.n_dies}",
                    STACK.interlayer_thickness_with_channels,
                    cavity_index=self.stack.n_dies,
                )
            )
        else:
            for d, die in enumerate(self.stack.dies):
                if d > 0:
                    slabs.append(
                        Slab(
                            SlabKind.INTERFACE,
                            f"interface{d - 1}",
                            STACK.interlayer_thickness,
                            cavity_index=d - 1,
                        )
                    )
                slabs.append(
                    Slab(SlabKind.DIE, die.floorplan.name, die.thickness, die_index=d)
                )
        return slabs

    def _build_unit_operators(self) -> None:
        """Precompute the unit<->cell index arrays and sparse operators."""
        self.unit_keys: tuple[tuple[int, str], ...] = tuple(
            sorted(
                (d, unit.name)
                for d, die in enumerate(self.stack.dies)
                for unit in die.floorplan
            )
        )
        self.n_units = len(self.unit_keys)
        self.unit_index: dict[tuple[int, str], int] = {
            key: u for u, key in enumerate(self.unit_keys)
        }

        cells: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * self.n_units
        for d, die in enumerate(self.stack.dies):
            slab_nodes = self.slab_nodes(self._die_slab[d])
            raster = self.rasters[d]
            for floorplan_idx, unit in enumerate(die.floorplan.units):
                u = self.unit_index[(d, unit.name)]
                cells[u] = np.ascontiguousarray(slab_nodes[raster == floorplan_idx])
        self._unit_cells: list[np.ndarray] = cells
        self.unit_cell_counts = np.array([c.size for c in cells], dtype=np.int64)
        # Units that received no cells (possible at very coarse grids);
        # tolerated at construction, rejected at first use — matching
        # the historical lazy behaviour of ``unit_cells``.
        self._empty_units = [
            self.unit_keys[u] for u in np.flatnonzero(self.unit_cell_counts == 0)
        ]
        counts_safe = np.maximum(self.unit_cell_counts, 1)
        self._counts_safe = counts_safe.astype(float)

        # Mean-gather operator: M_sum[u, node] = 1.0 over unit u's cells.
        flat_cells = np.concatenate(cells) if cells else np.empty(0, dtype=np.int64)
        owner = np.repeat(np.arange(self.n_units), self.unit_cell_counts)
        self._unit_cells_flat = flat_cells
        self._cell_owner = owner
        indptr = np.concatenate(([0], np.cumsum(self.unit_cell_counts)))
        self._m_sum = sp.csr_matrix(
            (np.ones(flat_cells.size), flat_cells, indptr),
            shape=(self.n_units, self.n_nodes),
        )
        # Content identity of S and M_sum: equal digests mean equal
        # operators, whatever grid object built them.
        hasher = hashlib.sha256(repr((self.n_nodes, self.n_units)).encode())
        hasher.update(flat_cells.astype(np.int64).tobytes())
        hasher.update(self.unit_cell_counts.tobytes())
        self.unit_operator_digest: str = hasher.hexdigest()

        # Cores in stack order (== stack.core_names() order).
        self.core_keys: tuple[tuple[int, str], ...] = tuple(
            (d, unit.name)
            for d, die in enumerate(self.stack.dies)
            for unit in die.floorplan.units_of_kind(UnitKind.CORE)
        )
        self.core_index = np.array(
            [self.unit_index[key] for key in self.core_keys], dtype=np.int64
        )

        # All die-slab node indices, for the masked junction max.
        self._die_nodes = np.concatenate(
            [self.slab_nodes(s).ravel() for s in self._die_slab_list]
        ) if self._die_slab_list else np.empty(0, dtype=np.int64)

    # --- node indexing ------------------------------------------------------

    def node(self, slab_idx: int, i: int, j: int) -> int:
        """Global node index of grid cell ``(i, j)`` in slab ``slab_idx``.

        ``i`` runs along x (flow direction), ``j`` along y.
        """
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise GeometryError(f"cell ({i}, {j}) outside {self.nx}x{self.ny} grid")
        return slab_idx * self._cells_per_slab + j * self.nx + i

    def slab_nodes(self, slab_idx: int) -> np.ndarray:
        """All node indices of one slab, shaped ``(ny, nx)``."""
        base = slab_idx * self._cells_per_slab
        return np.arange(base, base + self._cells_per_slab).reshape(self.ny, self.nx)

    def die_slab_index(self, die_index: int) -> int:
        """Slab index of the given die (O(1) lookup)."""
        try:
            return self._die_slab[die_index]
        except KeyError:
            raise GeometryError(f"no die {die_index} in this grid")

    def cavity_slab_index(self, cavity_index: int) -> int:
        """Slab index of the given cavity (liquid cooling only; O(1))."""
        try:
            return self._cavity_slab[cavity_index]
        except KeyError:
            raise GeometryError(f"no cavity {cavity_index} in this grid")

    def die_slab_indices(self) -> list[int]:
        """Slab indices of all dies, bottom to top."""
        return list(self._die_slab_list)

    def cavity_slab_indices(self) -> list[int]:
        """Slab indices of all cavities, bottom to top."""
        return list(self._cavity_slab_list)

    # --- unit <-> cell mapping -----------------------------------------------

    def unit_position(self, die_index: int, unit_name: str) -> int:
        """Position of a unit within :attr:`unit_keys`."""
        try:
            return self.unit_index[(die_index, unit_name)]
        except KeyError:
            raise GeometryError(
                f"no unit {unit_name!r} on die {die_index} in this grid"
            )

    def unit_cells(self, die_index: int, unit_name: str) -> np.ndarray:
        """Node indices of the cells of one floorplan unit."""
        u = self.unit_position(die_index, unit_name)
        cells = self._unit_cells[u]
        if cells.size == 0:
            raise GeometryError(
                f"unit {unit_name!r} on die {die_index} received no grid cells; "
                "increase the grid resolution"
            )
        return cells

    def _require_cells(self, keys) -> None:
        for die_index, unit_name in keys:
            raise GeometryError(
                f"unit {unit_name!r} on die {die_index} received no grid cells; "
                "increase the grid resolution"
            )

    def power_vector_from_array(self, unit_powers: np.ndarray) -> np.ndarray:
        """Per-node power injection (W) from a per-unit power vector.

        ``unit_powers`` is aligned to :attr:`unit_keys`; each unit's
        power is spread uniformly over its grid cells (cell value
        ``watts / count``, one IEEE division — identical to the
        historical per-unit loop).
        """
        p = np.asarray(unit_powers, dtype=float)
        if p.shape != (self.n_units,):
            raise GeometryError(
                f"unit power vector has shape {p.shape}, expected ({self.n_units},)"
            )
        if self._empty_units:
            bad = [
                key for key in self._empty_units
                if p[self.unit_index[key]] != 0.0
            ]
            if bad:
                self._require_cells(bad)
        out = np.zeros(self.n_nodes)
        out[self._unit_cells_flat] = (p / self._counts_safe)[self._cell_owner]
        return out

    # --- temperature extraction -----------------------------------------------

    def _unit_means(self, temperatures: np.ndarray) -> np.ndarray:
        """Per-unit mean temperatures (0.0 for cell-less units)."""
        temperatures = np.asarray(temperatures, dtype=float)
        if temperatures.shape != (self.n_nodes,):
            raise GeometryError(
                f"temperature vector has shape {temperatures.shape}, "
                f"expected ({self.n_nodes},)"
            )
        return (self._m_sum @ temperatures) / self._counts_safe

    def unit_temperature_vector(self, temperatures: np.ndarray) -> np.ndarray:
        """Mean temperature of every unit, aligned to :attr:`unit_keys`.

        One sparse matvec plus an elementwise division.
        """
        if self._empty_units:
            self._require_cells(self._empty_units)
        return self._unit_means(temperatures)

    def unit_temperature(self, temperatures: np.ndarray, die_index: int, unit_name: str) -> float:
        """Mean temperature of one unit's cells (a block thermal sensor)."""
        u = self.unit_position(die_index, unit_name)
        if self._unit_cells[u].size == 0:
            self._require_cells([(die_index, unit_name)])
        return float(self._unit_means(temperatures)[u])

    def die_temperature_field(self, temperatures: np.ndarray, die_index: int) -> np.ndarray:
        """Temperature field of one die as an ``(ny, nx)`` array."""
        return temperatures[self.slab_nodes(self.die_slab_index(die_index))]

    def max_die_temperature(self, temperatures: np.ndarray) -> float:
        """Maximum temperature over all die cells (junction T_max).

        A single masked max over the precomputed die-node index array.
        """
        return float(np.asarray(temperatures)[self._die_nodes].max())

    def max_unit_temperature(self, temperatures: np.ndarray) -> float:
        """Maximum of the per-unit sensor readings (block means).

        This is the T_max a runtime policy can actually observe — the
        paper assumes one thermal sensor per core/unit — and what the
        controller, scheduler, and metrics operate on. The cell-level
        :meth:`max_die_temperature` is slightly higher and serves as
        ground truth in validation tests.
        """
        return float(self.unit_temperature_vector(temperatures).max())
