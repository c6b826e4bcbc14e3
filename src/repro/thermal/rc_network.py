"""Assembly of the grid-level thermal RC network (Section III-A).

The network generalizes HotSpot's grid model to 3D stacks with
heterogeneous interlayer material, implementing the paper's two
novelties: (1) per-grid-cell thermal resistivity, so TSV regions,
plain interlayer material, and microchannels are modelled distinctly,
and (2) runtime-varying coolant-cell properties: the convective film
conductance and the advective (sensible heat) transport both depend on
the current per-cavity flow rate, and the network is rebuilt when the
pump setting changes (the simulator caches one factorization per pump
setting).

The coolant inlet temperature is a fixed boundary on the channel rows:
it enters only the source vector ``b``, never ``G`` or ``C``. So a
network is two parts. The inlet-independent part (:class:`RCOperator`:
``G``, ``C`` and the advection bookkeeping) is assembled once per
content key and shared through a weak store, like the LU store; the
boundary vector is filled per network with the same ``b[inlet] += g *
T_in`` operations assembly always used, so every matrix and result is
bitwise what a fresh assembly gives.

Energy balance at a coolant node f with upstream node u::

    C_f dT_f/dt = g_film * (T_wall - T_f) + m_dot*c_p * (T_u - T_f)

which makes the conductance matrix asymmetric (advection is directed);
the sparse LU solver handles this without modification. Summing the
steady-state balance along a channel row reproduces the paper's
iterative sensible-heat computation: m_dot*c_p*(T_out - T_in) equals
the absorbed heat, i.e. Eq. 4/5 generalized to non-uniform power.
"""

from __future__ import annotations

import hashlib
import math
import threading
import weakref
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.constants import (
    COPPER_CONDUCTIVITY,
    MICROCHANNEL,
    SILICON_CONDUCTIVITY,
    SILICON_VOLUMETRIC_HEAT_CAPACITY,
    STACK,
)
from repro.errors import ConfigurationError, SolverError
from repro.geometry.floorplan import UnitKind
from repro.geometry.stack import CoolingKind
from repro.microchannel.geometry import ChannelGeometry
from repro.microchannel.model import MicrochannelModel
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace
from repro.thermal.grid import SlabKind, ThermalGrid
from repro.thermal.package import AirPackage

#: Default calibrated resistance scale for the liquid path:
#: chosen so the hottest Table II workload (Web-high) reaches ~87.5 degC at
#: the lowest pump setting and ~77.7 degC (sensor) at the highest — Fig. 5's
#: operating band, with ~3 K of headroom under the 80 degC target for
#: thread-burst transients. See repro.sim.calibration.
DEFAULT_RESISTANCE_SCALE = 4.5

#: Default calibrated resistance scale for the air path:
#: puts Web-high on the air-cooled 2-layer stack at ~85 degC (sensor), at
#: the 85 degC hot-spot threshold so load bursts cross it intermittently —
#: Figure 6's regime, where the air system shows hot spots a fraction of
#: the time and thermal policies can influence them. See
#: repro.sim.calibration.
DEFAULT_AIR_RESISTANCE_SCALE = 2.9

#: Admissible coolant inlet temperatures, degC. The band covers glycol
#: mixes below freezing through pressurized hot-water loops; the paper
#: itself operates at 20-70 degC (Section IV-B / Fig. 7).
MIN_INLET_TEMPERATURE = -20.0
MAX_INLET_TEMPERATURE = 150.0


@dataclass(frozen=True)
class ThermalParams:
    """Material properties and calibration knobs of the network.

    All defaults trace to Table I/III or to the calibration in
    :mod:`repro.sim.calibration`.
    """

    k_silicon: float = SILICON_CONDUCTIVITY
    silicon_vol_capacity: float = SILICON_VOLUMETRIC_HEAT_CAPACITY
    interlayer_conductivity: float = 1.0 / STACK.interlayer_resistivity
    interlayer_vol_capacity: float = 2.0e6
    r_beol_area: float = MICROCHANNEL.r_beol
    tsv_conductivity: float = COPPER_CONDUCTIVITY
    inlet_temperature: float = 60.0
    resistance_scale: float = DEFAULT_RESISTANCE_SCALE
    air_resistance_scale: float = DEFAULT_AIR_RESISTANCE_SCALE

    def __post_init__(self) -> None:
        for name in _POSITIVE_PARAM_FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigurationError(
                    f"{name} must be finite and positive, got {value}"
                )
        if not math.isfinite(self.inlet_temperature) or not (
            MIN_INLET_TEMPERATURE <= self.inlet_temperature <= MAX_INLET_TEMPERATURE
        ):
            raise ConfigurationError(
                "inlet_temperature must be a finite coolant temperature in "
                f"[{MIN_INLET_TEMPERATURE:g}, {MAX_INLET_TEMPERATURE:g}] degC "
                f"(the paper operates at 20-70 degC), got {self.inlet_temperature}"
            )


_POSITIVE_PARAM_FIELDS = (
    "k_silicon",
    "silicon_vol_capacity",
    "interlayer_conductivity",
    "interlayer_vol_capacity",
    "r_beol_area",
    "tsv_conductivity",
    "resistance_scale",
    "air_resistance_scale",
)
"""Every physical :class:`ThermalParams` field but the inlet
temperature (checked against its own band): each must be finite and
> 0, or the network assembles with NaN, infinite or negative entries."""

_OPERATOR_PARAM_FIELDS = tuple(
    f.name for f in fields(ThermalParams) if f.name != "inlet_temperature"
)
"""The :class:`ThermalParams` fields in the operator store's key: every
one but the inlet temperature, which enters only the boundary vector."""

_ASSEMBLIES = _metrics.counter("thermal.assembly")
""":func:`build_network` calls by how the operator was obtained:
``kind=build`` assembled ``G`` and ``C`` afresh, ``kind=shared`` reused
a live network's operator from the store."""


def matrix_digest(matrix: sp.spmatrix) -> str:
    """The LU-store key of a sparse matrix: the sha256 of its shape and
    CSR arrays. Assembly is canonical, so equal matrices hash equal, and
    the solvers' CSR matrices hash without a format conversion."""
    csr = matrix.tocsr()
    hasher = hashlib.sha256(repr(csr.shape).encode())
    for array in (csr.indptr, csr.indices, csr.data):
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


class KeyedMatrix:
    """A solver's system matrix with its LU-store key.

    ``digest`` (:func:`matrix_digest`) is computed on first use and
    kept, so a matrix that many solvers look up is hashed once.
    """

    def __init__(self, matrix: sp.spmatrix) -> None:
        self.matrix = matrix

    @cached_property
    def digest(self) -> str:
        return matrix_digest(self.matrix)


class RCOperator:
    """The inlet-independent part of an RC network: ``G``, ``C`` and the
    coolant bookkeeping, plus the matrices solvers derive from them.

    :func:`build_network` keeps one operator per content key (the grid
    layout, the cavity flows, the channel model or package, and every
    :class:`ThermalParams` field but the inlet temperature) in a weak
    store, so networks that differ only in coolant inlet hold the same
    read-only arrays, and the operator is freed with its last network.
    A network constructed directly gets a private operator.

    :meth:`steady_matrix` (``G``) and :meth:`step_matrix` (``C/dt + G``
    per ``dt``) are memoized here with their LU-store digests, so
    :func:`repro.thermal.solver.factorize` hashes each matrix once,
    however many solvers ask for it.

    Attributes
    ----------
    conductance, capacitance:
        ``G`` (CSR) and the diagonal of ``C``.
    fixed_boundary:
        The source vector from boundaries other than the coolant inlet
        (the air package's ambient), or ``None`` for none.
    advection_inlets / advection_outlets / advection_conductances:
        As on :class:`RCNetwork`.
    """

    __slots__ = (
        "conductance",
        "capacitance",
        "fixed_boundary",
        "advection_inlets",
        "advection_outlets",
        "advection_conductances",
        "_derived",
        "__weakref__",
    )

    def __init__(
        self,
        conductance: sp.csr_matrix,
        capacitance: np.ndarray,
        fixed_boundary: Optional[np.ndarray] = None,
        advection_inlets: tuple[np.ndarray, ...] = (),
        advection_outlets: tuple[np.ndarray, ...] = (),
        advection_conductances: tuple[float, ...] = (),
    ) -> None:
        self.conductance = conductance
        self.capacitance = capacitance
        self.fixed_boundary = fixed_boundary
        self.advection_inlets = advection_inlets
        self.advection_outlets = advection_outlets
        self.advection_conductances = advection_conductances
        self._derived: dict = {}

    def boundary(self, t_inlet: float) -> np.ndarray:
        """The source vector ``b`` at a coolant inlet of ``t_inlet`` degC:
        the fixed part plus ``b[inlet] += g * t_inlet`` per cavity, the
        operations assembly performs."""
        if self.fixed_boundary is None:
            boundary = np.zeros(self.conductance.shape[0])
        else:
            boundary = self.fixed_boundary.copy()
        for nodes, g in zip(self.advection_inlets, self.advection_conductances):
            boundary[nodes] += g * t_inlet
        return boundary

    def steady_matrix(self) -> KeyedMatrix:
        """``G`` with its LU-store key."""
        hit = self._derived.get("steady")
        if hit is None:
            hit = self._derived.setdefault("steady", KeyedMatrix(self.conductance))
        return hit

    def step_matrix(self, dt: float) -> tuple[np.ndarray, KeyedMatrix]:
        """``(C/dt, C/dt + G)`` for a backward-Euler step of ``dt``,
        memoized per ``dt``; ``C/dt`` is read-only. The caller validates
        ``dt`` and ``C/dt``."""
        hit = self._derived.get(dt)
        if hit is None:
            c_over_dt = self.capacitance / dt
            c_over_dt.flags.writeable = False
            matrix = KeyedMatrix(self.conductance + sp.diags(c_over_dt))
            hit = self._derived.setdefault(dt, (c_over_dt, matrix))
        return hit


@dataclass(eq=False)
class RCNetwork:
    """An assembled thermal RC network.

    ``eq=False`` keeps identity semantics: a field-wise ``==`` over
    sparse matrices and arrays has no single truth value. Solvers share
    LUs by matrix content (:func:`repro.thermal.solver.factorize`),
    never by network identity or equality.

    ``G``, ``C`` and the advection arrays are the :attr:`operator`'s,
    which :func:`build_network` shares by content among networks that
    differ only in coolant inlet (read-only there); ``boundary`` is
    each network's own.

    Attributes
    ----------
    conductance:
        Sparse (n x n) conductance matrix G (W/K); asymmetric when the
        network contains coolant advection.
    capacitance:
        Per-node heat capacities (J/K), the diagonal of C.
    boundary:
        Constant source vector b (W) from Dirichlet boundaries (coolant
        inlet, ambient); the network ODE is ``C dT/dt = -G T + P + b``.
    grid:
        The node layout this network was assembled for.
    cavity_flows:
        Per-cavity flows (m^3/s) used during assembly (empty for air).
    advection_inlets / advection_outlets / advection_conductances:
        Per-cavity coolant bookkeeping for the facility coupling: the
        inlet-column and outlet-column node indices of each cavity's
        channel rows, and the per-row advective conductance
        ``m_dot * c_p`` (W/K). Empty for air-cooled networks (and for
        the naive reference assembly, which never co-simulates).
    inlet_temperature:
        The coolant inlet temperature (degC) baked into ``boundary``
        at assembly time; reference point for
        :meth:`inlet_boundary_delta`.
    operator:
        The :class:`RCOperator` holding ``conductance`` and
        ``capacitance``. One that holds other arrays (or ``None``) is
        replaced by a private operator on these, so
        ``dataclasses.replace`` never pairs new matrices with an old
        operator's memoized ones.
    """

    conductance: sp.csr_matrix
    capacitance: np.ndarray
    boundary: np.ndarray
    grid: ThermalGrid
    cavity_flows: tuple[float, ...]
    advection_inlets: tuple[np.ndarray, ...] = ()
    advection_outlets: tuple[np.ndarray, ...] = ()
    advection_conductances: tuple[float, ...] = ()
    inlet_temperature: float = 0.0
    operator: Optional[RCOperator] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        op = self.operator
        if (
            op is None
            or op.conductance is not self.conductance
            or op.capacitance is not self.capacitance
        ):
            self.operator = RCOperator(self.conductance, self.capacitance)

    @property
    def n_nodes(self) -> int:
        """Number of temperature nodes."""
        return self.grid.n_nodes

    def inlet_boundary_delta(self, t_inlet: float) -> Optional[np.ndarray]:
        """Source-vector correction for running this network at a
        coolant inlet of ``t_inlet`` degC instead of the assembled one.

        The inlet enters the network ODE only through the boundary
        term ``b[inlet] += g * t_inlet`` (see ``add_advection_rows``),
        which is linear in ``t_inlet`` — so changing the inlet per
        interval is a pure right-hand-side update: add the returned
        vector to the node power and reuse the memoized factorization
        (G and C are untouched, nothing refactorizes). Returns ``None``
        when the network has no coolant rows or the requested inlet
        equals the assembled one (the fixed-inlet fast path).
        """
        if not self.advection_inlets or t_inlet == self.inlet_temperature:
            return None
        delta = np.zeros(self.n_nodes)
        shift = t_inlet - self.inlet_temperature
        for nodes, g in zip(self.advection_inlets, self.advection_conductances):
            delta[nodes] += g * shift
        return delta

    def coolant_heat_rejected(
        self, temperatures: np.ndarray, t_inlet: Optional[float] = None
    ) -> float:
        """Heat carried out of the stack by the coolant, W.

        Sensible-heat balance summed over every channel row of every
        cavity: ``sum g * (T_outlet - T_inlet)`` — the generalized
        Eq. 4/5 accounting (the paper's uniform-power form
        ``(q1 + q2) * R_th-heat`` is the special case).
        ``t_inlet`` defaults to the assembled inlet temperature; pass
        the interval's actual inlet when co-simulating a facility.
        Returns 0 for air-cooled networks.
        """
        if not self.advection_outlets:
            return 0.0
        if t_inlet is None:
            t_inlet = self.inlet_temperature
        total = 0.0
        for nodes, g in zip(self.advection_outlets, self.advection_conductances):
            total += g * float((temperatures[nodes] - t_inlet).sum())
        return total


class _Assembler:
    """Accumulates conductances in COO form plus boundary couplings.

    Entries can be added one at a time (the scalar methods, used for
    the lumped package nodes and by the naive reference assembly kept
    for equivalence tests) or in array bulk (the vectorized builders).
    Both paths feed the same canonical :meth:`to_csr`, which sums
    duplicate entries in a value-sorted order per ``(row, col)`` — so
    the assembled matrix is bit-identical regardless of the order the
    couplings were emitted in.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.boundary = np.zeros(n)

    # --- scalar entry points -------------------------------------------------

    def add_coupling(self, a: int, b: int, g: float) -> None:
        """Symmetric conductance g between nodes a and b."""
        if g <= 0.0:
            raise SolverError(f"non-positive conductance {g} between {a} and {b}")
        self.rows += [a, b, a, b]
        self.cols += [a, b, b, a]
        self.vals += [g, g, -g, -g]

    def add_to_boundary(self, a: int, g: float, t_boundary: float) -> None:
        """Conductance g from node a to a fixed-temperature boundary."""
        if g <= 0.0:
            raise SolverError(f"non-positive boundary conductance {g} at node {a}")
        self.rows.append(a)
        self.cols.append(a)
        self.vals.append(g)
        self.boundary[a] += g * t_boundary

    def add_advection(self, node: int, upstream: Optional[int], g: float, t_inlet: float) -> None:
        """Directed advective transport m_dot*c_p into ``node``.

        ``upstream is None`` means the node is at the channel inlet.
        """
        if g < 0.0:
            raise SolverError("advective conductance must be non-negative")
        if g == 0.0:
            return
        self.rows.append(node)
        self.cols.append(node)
        self.vals.append(g)
        if upstream is None:
            self.boundary[node] += g * t_inlet
        else:
            self.rows.append(node)
            self.cols.append(upstream)
            self.vals.append(-g)

    # --- array-bulk entry points --------------------------------------------

    def add_couplings(self, a: np.ndarray, b: np.ndarray, g) -> None:
        """Symmetric conductances between node arrays ``a`` and ``b``.

        ``g`` is a scalar broadcast over all pairs or an array of the
        same length. Emits the same entry multiset as calling
        :meth:`add_coupling` per pair.
        """
        a = np.asarray(a, dtype=np.int64).ravel()
        b = np.asarray(b, dtype=np.int64).ravel()
        if a.shape != b.shape:
            raise SolverError("coupling node arrays must have equal length")
        if a.size == 0:
            return
        g = np.asarray(g, dtype=float)
        if g.ndim == 0:
            g = np.full(a.shape, float(g))
        else:
            g = g.ravel()
            if g.shape != a.shape:
                raise SolverError("coupling conductance array length mismatch")
        if np.any(g <= 0.0):
            k = int(np.flatnonzero(g <= 0.0)[0])
            raise SolverError(
                f"non-positive conductance {g[k]} between {a[k]} and {b[k]}"
            )
        self._chunks.append(
            (
                np.concatenate((a, b, a, b)),
                np.concatenate((a, b, b, a)),
                np.concatenate((g, g, -g, -g)),
            )
        )

    def add_advection_rows(self, nodes: np.ndarray, g: float) -> None:
        """Directed advection along every row of a slab's node grid.

        ``nodes`` is the slab's ``(ny, nx)`` node array; flow runs along
        x, so column 0 holds the inlet cells and every other cell is fed
        by its left neighbour. Emits the same matrix entries as per-cell
        :meth:`add_advection` calls; the inlet cells' boundary term is
        left to :meth:`RCOperator.boundary`, per network.
        """
        if g < 0.0:
            raise SolverError("advective conductance must be non-negative")
        if g == 0.0:
            return
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.ndim != 2:
            raise SolverError("advection expects a (ny, nx) node grid")
        interior = nodes[:, 1:].ravel()
        upstream = nodes[:, :-1].ravel()
        all_nodes = nodes.ravel()
        self._chunks.append(
            (
                np.concatenate((all_nodes, interior)),
                np.concatenate((all_nodes, upstream)),
                np.concatenate(
                    (np.full(all_nodes.size, g), np.full(interior.size, -g))
                ),
            )
        )

    # --- assembly ------------------------------------------------------------

    def to_csr(self) -> sp.csr_matrix:
        """Assemble the accumulated triplets into CSR form.

        Duplicates are summed in canonical ``(row, col, value)`` order,
        so the result depends only on the multiset of emitted entries —
        never on emission order. Scalar and bulk emission paths produce
        bit-identical matrices.
        """
        parts_r = [np.asarray(self.rows, dtype=np.int64)]
        parts_c = [np.asarray(self.cols, dtype=np.int64)]
        parts_v = [np.asarray(self.vals, dtype=float)]
        for r, c, v in self._chunks:
            parts_r.append(r)
            parts_c.append(c)
            parts_v.append(v)
        rows = np.concatenate(parts_r)
        cols = np.concatenate(parts_c)
        vals = np.concatenate(parts_v)
        if rows.size == 0:
            return sp.csr_matrix((self.n, self.n))
        # One fused (row, col) key keeps the lexsort at two passes.
        combined = rows * np.int64(self.n) + cols
        order = np.lexsort((vals, combined))
        combined, vals = combined[order], vals[order]
        boundaries = np.flatnonzero(np.diff(combined))
        starts = np.concatenate(([0], boundaries + 1))
        data = np.add.reduceat(vals, starts)
        keys = combined[starts]
        indices = keys % self.n
        counts = np.bincount(keys // self.n, minlength=self.n)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return sp.csr_matrix(
            (data, indices, indptr), shape=(self.n, self.n)
        )


def _series(*resistances: float) -> float:
    """Conductance of resistances in series."""
    total = sum(resistances)
    if total <= 0.0:
        raise SolverError("series resistance must be positive")
    return 1.0 / total


def _series_array(scalar_r: float, r_array: np.ndarray) -> np.ndarray:
    """Elementwise series conductance of a scalar and an array of
    resistances (same arithmetic as :func:`_series` per element)."""
    total = scalar_r + np.asarray(r_array, dtype=float)
    if np.any(total <= 0.0):
        raise SolverError("series resistance must be positive")
    return 1.0 / total


def build_network(
    grid: ThermalGrid,
    params: ThermalParams = ThermalParams(),
    cavity_flows: Optional[Sequence[float]] = None,
    channel_model: Optional[MicrochannelModel] = None,
    package: Optional[AirPackage] = None,
) -> RCNetwork:
    """The RC network for a grid at given operating conditions.

    ``G``, ``C`` and the advection bookkeeping (the :class:`RCOperator`)
    are assembled only when no live network shares their content key:
    the grid's :attr:`~repro.thermal.grid.ThermalGrid.layout_key`, the
    cavity flows, the channel model or package, and every
    :class:`ThermalParams` field but ``inlet_temperature``. Otherwise
    the new network holds that network's read-only arrays (an inlet
    sweep assembles once per pump setting, not once per inlet). The
    boundary vector is the network's own. Both paths give bitwise the
    same network; ``thermal.assembly{kind=build|shared}`` counts them.
    Two threads missing on one key at once may both assemble; every
    network gets the operator stored first.

    Parameters
    ----------
    grid:
        Node layout (stack + resolution).
    params:
        Material properties and calibration scales.
    cavity_flows:
        Liquid cooling only: per-cavity volumetric flow (m^3/s), either
        one value per cavity or a single value broadcast to all (the
        paper's pump feeds all cavities equally).
    channel_model:
        Microchannel heat-transfer model; defaults to the paper's
        geometry sized to the stack outline.
    package:
        Air cooling only: the package on top of the stack.
    """
    stack = grid.stack
    if stack.cooling is CoolingKind.LIQUID:
        if cavity_flows is None:
            raise ConfigurationError("liquid-cooled networks need cavity_flows")
        flows = _broadcast_flows(cavity_flows, stack.n_cavities)
        model = channel_model or MicrochannelModel(
            geometry=ChannelGeometry(length=stack.width),
            die_height=stack.height,
        )
        conditions = (flows, model)
        inlet_temperature = params.inlet_temperature
    else:
        if cavity_flows is not None:
            raise ConfigurationError("air-cooled networks take no cavity_flows")
        flows = ()
        package = package or AirPackage()
        conditions = (package,)
        inlet_temperature = 0.0
    key = (grid.layout_key, conditions) + tuple(
        getattr(params, name) for name in _OPERATOR_PARAM_FIELDS
    )
    with _operator_store_lock:
        op = _operator_store.get(key)
    if op is not None:
        _ASSEMBLIES.inc(kind="shared")
    else:
        op = _assemble_operator(grid, params, *conditions)
        _ASSEMBLIES.inc(kind="build")
        with _operator_store_lock:
            op = _operator_store.setdefault(key, op)
    return RCNetwork(
        conductance=op.conductance,
        capacitance=op.capacitance,
        boundary=op.boundary(inlet_temperature),
        grid=grid,
        cavity_flows=flows,
        advection_inlets=op.advection_inlets,
        advection_outlets=op.advection_outlets,
        advection_conductances=op.advection_conductances,
        inlet_temperature=inlet_temperature,
        operator=op,
    )


_operator_store: "weakref.WeakValueDictionary[tuple, RCOperator]" = (
    weakref.WeakValueDictionary()
)
_operator_store_lock = threading.Lock()


def clear_operator_store() -> None:
    """Forget every stored operator, so later networks assemble afresh.

    Networks already built keep theirs."""
    with _operator_store_lock:
        _operator_store.clear()


def _assemble_operator(grid: ThermalGrid, params: ThermalParams, *conditions) -> RCOperator:
    """Assemble ``G``, ``C`` and the advection bookkeeping afresh, with
    every array read-only (the store shares them). ``conditions`` is
    ``(flows, channel_model)`` for liquid cooling, ``(package,)`` for air."""
    liquid = grid.stack.cooling is CoolingKind.LIQUID
    with _trace.span(
        "assemble", cooling="liquid" if liquid else "air", grid=(grid.nx, grid.ny),
        n_nodes=grid.n_nodes,
    ):
        op = (_build_liquid if liquid else _build_air)(grid, params, *conditions)
    arrays = [op.capacitance, *op.advection_inlets, *op.advection_outlets]
    arrays += [op.conductance.data, op.conductance.indices, op.conductance.indptr]
    if op.fixed_boundary is not None:
        arrays.append(op.fixed_boundary)
    for array in arrays:
        array.flags.writeable = False
    return op


def _broadcast_flows(cavity_flows: Sequence[float], n_cavities: int) -> tuple[float, ...]:
    flows = [float(f) for f in np.atleast_1d(np.asarray(cavity_flows, dtype=float))]
    if len(flows) == 1:
        flows = flows * n_cavities
    if len(flows) != n_cavities:
        raise ConfigurationError(
            f"expected {n_cavities} cavity flows, got {len(flows)}"
        )
    if any(f < 0.0 for f in flows):
        raise ConfigurationError("cavity flows must be non-negative")
    return tuple(flows)


# --- common pieces ---------------------------------------------------------


def _die_lateral(asm: _Assembler, grid: ThermalGrid, slab_idx: int, thickness: float, k: float) -> None:
    """Lateral conduction within one slab (vectorized neighbour pairs)."""
    g_x = k * thickness * grid.cell_h / grid.cell_w
    g_y = k * thickness * grid.cell_w / grid.cell_h
    nodes = grid.slab_nodes(slab_idx)
    asm.add_couplings(nodes[:, :-1], nodes[:, 1:], g_x)
    asm.add_couplings(nodes[:-1, :], nodes[1:, :], g_y)


def _die_half_resistance(grid: ThermalGrid, die_thickness: float, params: ThermalParams) -> float:
    """Half-die vertical conduction resistance of one cell, K/W."""
    return (die_thickness / 2.0) / (params.k_silicon * grid.cell_area)


def _beol_resistance(grid: ThermalGrid, params: ThermalParams, scale: float) -> float:
    """BEOL (wiring stack) resistance of one cell, K/W (Eq. 2/3)."""
    return params.r_beol_area * scale / grid.cell_area


def _tsv_mask(grid: ThermalGrid, die_index: int) -> np.ndarray:
    """Cells of a die covered by its crossbar (the TSV region)."""
    floorplan = grid.stack.dies[die_index].floorplan
    xbar_indices = [
        floorplan.units.index(u) for u in floorplan.units_of_kind(UnitKind.CROSSBAR)
    ]
    raster = grid.rasters[die_index]
    mask = np.zeros_like(raster, dtype=bool)
    for idx in xbar_indices:
        mask |= raster == idx
    return mask


def _tsv_fill_fraction(grid: ThermalGrid, die_index: int) -> float:
    """Fraction of the crossbar area occupied by copper TSVs."""
    floorplan = grid.stack.dies[die_index].floorplan
    xbar_area = sum(u.area for u in floorplan.units_of_kind(UnitKind.CROSSBAR))
    tsv_area = STACK.tsv_count_per_interface * STACK.tsv_side**2
    if xbar_area <= 0.0:
        return 0.0
    return min(1.0, tsv_area / xbar_area)


# --- liquid-cooled assembly -----------------------------------------------------


def _build_liquid(
    grid: ThermalGrid,
    params: ThermalParams,
    flows: tuple[float, ...],
    model: MicrochannelModel,
) -> RCOperator:
    asm = _Assembler(grid.n_nodes)
    capacitance = np.zeros(grid.n_nodes)
    adv_inlets: list[np.ndarray] = []
    adv_outlets: list[np.ndarray] = []
    adv_conductances: list[float] = []
    stack = grid.stack
    scale = params.resistance_scale
    coolant = model.coolant
    geom = model.geometry
    p_eff = geom.effective_pitch(model.die_height)
    fluid_fraction = min(1.0, geom.width / p_eff)
    t_cavity = STACK.interlayer_thickness_with_channels

    # Die slabs: lateral conduction and capacitance.
    for die_index, die in enumerate(stack.dies):
        slab_idx = grid.die_slab_index(die_index)
        _die_lateral(asm, grid, slab_idx, die.thickness, params.k_silicon)
        cap = params.silicon_vol_capacity * grid.cell_area * die.thickness
        capacitance[grid.slab_nodes(slab_idx)] += cap

    # Cavity slabs: coolant advection, film coupling, wall conduction, TSVs.
    for cavity_index in range(stack.n_cavities):
        flow = flows[cavity_index]
        slab_idx = grid.cavity_slab_index(cavity_index)
        die_below = cavity_index - 1 if cavity_index > 0 else None
        die_above = cavity_index if cavity_index < stack.n_dies else None

        h_eff = model.effective_h(flow)
        g_film_side = h_eff * grid.cell_area / 2.0 / scale
        # Mass flow per grid row: the cavity's channels are uniformly
        # distributed, so each of the ny rows carries flow/ny.
        g_adv_row = coolant.mass_flow(flow / grid.ny) * coolant.heat_capacity

        fluid_volume = grid.cell_area * geom.height * fluid_fraction
        solid_volume = grid.cell_area * t_cavity - fluid_volume
        cap = (
            coolant.volumetric_heat_capacity() * fluid_volume
            + params.interlayer_vol_capacity * max(solid_volume, 0.0)
        )
        capacitance[grid.slab_nodes(slab_idx)] += cap

        # Per-cell resistances on the die sides of the film.
        r_up = {}
        r_down = {}
        if die_below is not None:
            t_d = stack.dies[die_below].thickness
            # BEOL faces up: heat from the die below crosses its BEOL.
            r_up[die_below] = _die_half_resistance(grid, t_d, params) + _beol_resistance(
                grid, params, scale
            )
        if die_above is not None:
            t_d = stack.dies[die_above].thickness
            # The die above couples downward through its silicon slab.
            r_down[die_above] = _die_half_resistance(grid, t_d, params)

        fluid_nodes = grid.slab_nodes(slab_idx)
        asm.add_advection_rows(fluid_nodes, g_adv_row)
        if g_adv_row > 0.0:
            adv_inlets.append(fluid_nodes[:, 0].copy())
            adv_outlets.append(fluid_nodes[:, -1].copy())
            adv_conductances.append(g_adv_row)

        if die_below is not None:
            below_nodes = grid.slab_nodes(grid.die_slab_index(die_below))
            asm.add_couplings(
                fluid_nodes, below_nodes, _series(r_up[die_below], 1.0 / g_film_side)
            )
        if die_above is not None:
            above_nodes = grid.slab_nodes(grid.die_slab_index(die_above))
            asm.add_couplings(
                fluid_nodes, above_nodes, _series(r_down[die_above], 1.0 / g_film_side)
            )
        # Solid conduction straight through the cavity between the two
        # dies (channel walls; TSV-enhanced under the crossbar). This is
        # the per-cell heterogeneous resistivity of Section III-A.
        if die_below is not None and die_above is not None:
            tsv_mask = _tsv_mask(grid, die_below)
            phi = _tsv_fill_fraction(grid, die_below)
            k_wall = (1.0 - fluid_fraction) * params.interlayer_conductivity
            k_tsv = phi * params.tsv_conductivity + k_wall
            tsv_g = k_tsv * grid.cell_area / t_cavity
            wall_g = k_wall * grid.cell_area / t_cavity
            below_nodes = grid.slab_nodes(grid.die_slab_index(die_below))
            above_nodes = grid.slab_nodes(grid.die_slab_index(die_above))
            g_solid = np.where(tsv_mask, tsv_g, wall_g)
            positive = g_solid > 0.0
            if np.any(positive):
                r_total = (
                    _die_half_resistance(grid, stack.dies[die_below].thickness, params)
                    + _beol_resistance(grid, params, scale)
                    + 1.0 / g_solid[positive]
                    + _die_half_resistance(grid, stack.dies[die_above].thickness, params)
                )
                asm.add_couplings(
                    below_nodes[positive], above_nodes[positive], 1.0 / r_total
                )

    return RCOperator(
        asm.to_csr(),
        capacitance,
        advection_inlets=tuple(adv_inlets),
        advection_outlets=tuple(adv_outlets),
        advection_conductances=tuple(adv_conductances),
    )


# --- air-cooled assembly -----------------------------------------------------


def _build_air(grid: ThermalGrid, params: ThermalParams, package: AirPackage) -> RCOperator:
    asm = _Assembler(grid.n_nodes)
    capacitance = np.zeros(grid.n_nodes)
    stack = grid.stack
    scale = params.air_resistance_scale

    for die_index, die in enumerate(stack.dies):
        slab_idx = grid.die_slab_index(die_index)
        _die_lateral(asm, grid, slab_idx, die.thickness, params.k_silicon)
        cap = params.silicon_vol_capacity * grid.cell_area * die.thickness
        capacitance[grid.slab_nodes(slab_idx)] += cap

    # Interfaces between consecutive dies (thin interlayer material +
    # TSV-enhanced crossbar region).
    for slab_idx, slab in enumerate(grid.slabs):
        if slab.kind is not SlabKind.INTERFACE:
            continue
        die_below = slab.cavity_index
        die_above = die_below + 1
        t_if = slab.thickness
        cap = params.interlayer_vol_capacity * grid.cell_area * t_if
        capacitance[grid.slab_nodes(slab_idx)] += cap
        tsv_mask = _tsv_mask(grid, die_below)
        phi = _tsv_fill_fraction(grid, die_below)
        k_plain = params.interlayer_conductivity
        k_tsv = phi * params.tsv_conductivity + (1.0 - phi) * k_plain
        r_below_half = (
            _die_half_resistance(grid, stack.dies[die_below].thickness, params)
            + _beol_resistance(grid, params, scale)
        )
        r_above_half = _die_half_resistance(grid, stack.dies[die_above].thickness, params)
        if_nodes = grid.slab_nodes(slab_idx)
        below_nodes = grid.slab_nodes(grid.die_slab_index(die_below))
        above_nodes = grid.slab_nodes(grid.die_slab_index(die_above))
        k_cell = np.where(tsv_mask, k_tsv, k_plain)
        r_half_if = (t_if / 2.0) / (k_cell * grid.cell_area)
        asm.add_couplings(if_nodes, below_nodes, _series_array(r_below_half, r_half_if))
        asm.add_couplings(if_nodes, above_nodes, _series_array(r_above_half, r_half_if))

    # Package on top of the topmost die.
    top_die = stack.n_dies - 1
    top_slab = grid.die_slab_index(top_die)
    t_top = stack.dies[top_die].thickness
    r_cell_to_spreader = (
        _die_half_resistance(grid, t_top, params)
        + _beol_resistance(grid, params, scale)
        + package.tim_resistance_area * scale / grid.cell_area
    )
    top_nodes = grid.slab_nodes(top_slab).ravel()
    asm.add_couplings(
        top_nodes,
        np.full(top_nodes.size, grid.spreader_node),
        1.0 / r_cell_to_spreader,
    )
    asm.add_coupling(grid.spreader_node, grid.sink_node, 1.0 / package.spreader_resistance)
    asm.add_to_boundary(grid.sink_node, 1.0 / package.sink_resistance, package.ambient)
    capacitance[grid.spreader_node] += package.spreader_capacitance
    capacitance[grid.sink_node] += package.sink_capacitance

    return RCOperator(asm.to_csr(), capacitance, fixed_boundary=asm.boundary)
