"""Steady-state and transient solvers for the thermal RC network.

The network ODE is ``C dT/dt = -G T + P + b`` with diagonal C. The
transient solver uses backward Euler::

    (C/dt + G) T_{n+1} = (C/dt) T_n + P + b

which is unconditionally stable (the paper steps at the 100 ms sampling
interval, comparable to the stack's thermal time constant), and the
steady solver solves ``G T = P + b``.

Both wrappers hold the physics once — ``C/dt``, the boundary vector,
shape and finiteness checks, the ``steady`` spans, the warm start and
``run`` — and hand every ``A x = b`` to a *linear core* built once per
matrix. There are two cores behind one interface (``solve_linear``,
``solve_linear_many``, ``warm_start``):

* the exact core, the stored sparse LU from :func:`factorize`
  (:class:`Factorization`): the matrix depends only on (G, dt), so its
  LU comes from a process-wide store keyed by matrix content and each
  solve costs a pair of triangular solves;
* the iterative core (``_KrylovCore``): right-preconditioned GMRES
  (:func:`_right_gmres`) with the nearest retained neighbor design
  point's LU as the preconditioner, one LU solve and one matvec per
  iteration, stopped on the true residual, verified explicitly, with an
  exact fallback.

:class:`KrylovSteadySolver` and :class:`KrylovTransientSolver` differ
from :class:`SteadyStateSolver` and :class:`TransientSolver` only in the
core they construct. They still bind ``solve``/``solve_many``/``step``
in their own class bodies (``step = TransientSolver.step``): the
campaign benchmark's per-layer tracer (``perfbench/layers.py``) wraps
an entry point only where the class itself defines it, so an inherited
method would leave the krylov tier's ``thermal.step``/``thermal.steady``
layers unmeasured.

:func:`factorize` picks the SuperLU mode from the matrix itself. The
time-step matrix ``C/dt + G`` is a strictly row-diagonally-dominant
Z-matrix (conduction is symmetric, advection is upwind, and ``C/dt > 0``
adds a margin to every row), so it needs no pivoting and is factorized
in symmetric mode with an ``A + A^T`` minimum-degree ordering, which
fills in less and solves faster. The steady ``G`` is only weakly
dominant (its interior rows sum to roundoff) and keeps SuperLU's default
pivoting path: the TALB weights of mirror-image cores are mathematically
equal and ordered by LU roundoff alone, so a different steady LU would
change dispatch.
"""

from __future__ import annotations

import hashlib
import math
import threading
import weakref
from collections import OrderedDict
from dataclasses import fields as dataclass_fields
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import SolverError
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace
from repro.thermal.rc_network import KeyedMatrix, RCNetwork, ThermalParams

_FACTORIZATIONS = _metrics.counter("solver.factorizations")
"""Monotonic count of sparse LU factorizations this process has
performed — LU-store misses, whatever tier asked — kept in the
process-wide :mod:`repro.telemetry` registry (thread-safe increments).
Factorizing is the expensive, cacheable step: a campaign must pay once
per distinct matrix, and ``benchmarks/bench_hotpath.py`` plus the CI
perf job gate on snapshot diffs of this counter rather than on
wall-clock."""

_LU_STORE_HITS = _metrics.counter("solver.lu_store.hits")
"""LU-store hits (factorizations saved), labeled by the asking tier:
``kind=steady|transient|krylov``."""

_LU_ORDERINGS = _metrics.counter("solver.lu.orderings")
"""LU-store misses by SuperLU mode and asking tier:
``ordering=symmetric|pivoted``, ``kind=steady|transient|krylov``."""

SYMMETRIC_MODE_MARGIN = 1.0e-10
"""Relative row-dominance margin (``row_sum > margin * diagonal``) a
Z-matrix needs to be factorized without pivoting. Far above roundoff:
the steady ``G``'s interior rows sum to ~1e-16 relative and stay
pivoted, while the 100 ms time-step matrices clear it by ~1e-3 or
more, and still by ~1e-5 at a 10 s step."""


def _symmetric_mode_safe(csc: sp.csc_matrix) -> bool:
    """Whether ``csc`` is a Z-matrix (every off-diagonal <= 0) whose
    every row sum exceeds :data:`SYMMETRIC_MODE_MARGIN` times its
    diagonal — strictly row-diagonally dominant, hence a nonsingular
    M-matrix that LU-factorizes stably without pivoting under any
    symmetric permutation. O(nnz); NaN or inf entries fail it. The
    row sums are checked first: the steady ``G`` fails there, at a
    third of the full check's cost."""
    n = csc.shape[0]
    if csc.shape != (n, n):
        return False
    row_sums = np.bincount(csc.indices, weights=csc.data, minlength=n)
    if not np.all(row_sums > SYMMETRIC_MODE_MARGIN * csc.diagonal()):
        return False
    cols = np.repeat(np.arange(n), np.diff(csc.indptr))
    return bool(np.all(csc.data[csc.indices != cols] <= 0.0))


class Factorization:
    """A sparse LU held by solvers and weakly by the LU store; the exact
    linear core.

    ``SuperLU`` objects cannot be weakly referenced; this handle can,
    so the store forgets an LU with its last holder. ``solve`` is the
    LU's own bound method (no extra Python frame per solve);
    ``solve_linear``/``solve_linear_many`` are the linear-core interface
    the solver wrappers call, and ignore the initial guess. ``memo``
    holds results that depend on this matrix alone (see
    :attr:`SteadyStateSolver.memo`): the store shares the handle, so
    every solver of the same matrix shares them, and they die with the
    LU.
    """

    __slots__ = ("lu", "solve", "digest", "memo", "__weakref__")

    warm_start = False
    """A triangular solve takes no initial guess."""

    def __init__(self, lu: spla.SuperLU, digest: str) -> None:
        self.lu = lu
        self.solve = lu.solve
        self.digest = digest
        self.memo: dict = {}

    def solve_linear(self, rhs: np.ndarray, x0: Optional[np.ndarray] = None) -> np.ndarray:
        """``A x = rhs`` for one vector or an ``(n, k)`` block."""
        return self.solve(rhs)

    solve_linear_many = solve_linear


_lu_store: "weakref.WeakValueDictionary[str, Factorization]" = (
    weakref.WeakValueDictionary()
)
_lu_store_lock = threading.Lock()


def factorize(matrix: "sp.spmatrix | KeyedMatrix", kind: str) -> Factorization:
    """The LU of ``matrix`` from the process-wide store, keyed by the
    sha256 of its shape and CSR arrays; factorized only on a miss.

    Every exact factorization (steady, transient, TALB weights, the
    krylov tier's own) comes through here, so a matrix is factorized
    once however many systems share it — an inlet sweep moves only the
    boundary vector, so its points share every LU. Identical CSR arrays
    convert to identical CSC arrays, which give an identical LU, so
    sharing never changes a result bit. The
    solvers pass the :class:`~repro.thermal.rc_network.KeyedMatrix` that
    their network's shared operator memoizes (``G``, or ``C/dt + G`` per
    ``dt``), so each matrix is hashed once, not once per solver; a bare
    sparse matrix is hashed here.
    ``kind`` (``steady``, ``transient`` or ``krylov``) labels the hit
    counter and the ``factorize`` span. Two threads missing on the same
    matrix at once may both factorize; the first stored handle wins.

    The SuperLU mode is a property of the matrix, not a setting. A
    strictly row-diagonally-dominant Z-matrix (every time-step matrix
    ``C/dt + G`` with positive capacitance) is factorized in symmetric
    mode — ``MMD_AT_PLUS_A`` ordering, no pivoting — which cuts fill
    and solve time. Every other matrix, the steady ``G`` included
    (its rows sum to roundoff), keeps SuperLU's default COLAMD ordering
    with partial pivoting, so the steady LU and everything derived
    from it (TALB weights, flow table, burst floor, initial fields) is
    bitwise what the pivoting path gives. The ``factorize`` span
    records the choice as ``ordering=symmetric|pivoted`` and the fill
    as ``lu_nnz`` (SuperLU's own count, which includes supernodal
    padding).
    """
    if not isinstance(matrix, KeyedMatrix):
        matrix = KeyedMatrix(matrix)
    digest = matrix.digest
    with _lu_store_lock:
        hit = _lu_store.get(digest)
    if hit is not None:
        _LU_STORE_HITS.inc(kind=kind)
        return hit
    csc = matrix.matrix.tocsr().tocsc()
    symmetric = _symmetric_mode_safe(csc)
    ordering = "symmetric" if symmetric else "pivoted"
    with _trace.span(
        "factorize", kind=kind, ordering=ordering,
        n_nodes=csc.shape[0], digest=digest[:12],
    ) as span:
        try:
            if symmetric:
                lu = spla.splu(
                    csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True},
                )
            else:
                lu = spla.splu(csc)
        except RuntimeError as exc:
            raise SolverError(f"{kind} factorization failed: {exc}") from exc
        span.set_attrs(lu_nnz=int(lu.nnz))
    _FACTORIZATIONS.inc()
    _LU_ORDERINGS.inc(ordering=ordering, kind=kind)
    with _lu_store_lock:
        return _lu_store.setdefault(digest, Factorization(lu, digest))


def clear_lu_store() -> None:
    """Forget every stored LU, so later solvers factorize afresh.

    Solvers already holding a :class:`Factorization` keep it."""
    with _lu_store_lock:
        _lu_store.clear()


def _vector(array, n: int) -> np.ndarray:
    """``array`` as a float vector of length ``n``."""
    out = np.asarray(array, dtype=float)
    if out.shape != (n,):
        raise SolverError(f"vector has shape {out.shape}, expected ({n},)")
    return out


def _block(array, n: int) -> np.ndarray:
    """``array`` as an ``(n, k)`` float matrix."""
    out = np.asarray(array, dtype=float)
    if out.ndim != 2 or out.shape[0] != n:
        raise SolverError(f"matrix has shape {out.shape}, expected ({n}, k)")
    return out


def _finite(temps: np.ndarray, what: str) -> np.ndarray:
    # A finite sum proves every entry finite (a NaN or an infinity
    # makes the sum NaN or infinite); only an overflowing sum of
    # finite entries needs the full scan.
    if not math.isfinite(temps.sum()) and not np.all(np.isfinite(temps)):
        raise SolverError(f"{what} produced non-finite temperatures")
    return temps


def _step_matrix(network: RCNetwork, dt: float) -> tuple[np.ndarray, KeyedMatrix]:
    """The backward-Euler diagonal ``C/dt``, validated, and ``C/dt + G``,
    both shared through the network's operator."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise SolverError(f"time step must be finite and positive, got {dt}")
    c_over_dt, matrix = network.operator.step_matrix(dt)
    if not np.all(np.isfinite(c_over_dt)):
        raise SolverError("non-finite capacitance in network")
    if np.any(c_over_dt < 0.0):
        raise SolverError("negative capacitance in network")
    return c_over_dt, matrix


class SteadyStateSolver:
    """Solves ``G T = P + b`` for the equilibrium temperature field."""

    def __init__(self, network: RCNetwork) -> None:
        self.network = network
        self._core = self._linear_core(network.operator.steady_matrix())
        self._last: Optional[np.ndarray] = None

    def _linear_core(self, matrix: KeyedMatrix) -> "Factorization | _KrylovCore":
        return factorize(matrix, "steady")

    def solve(self, power: np.ndarray) -> np.ndarray:
        """Equilibrium temperatures for a per-node power injection (W)."""
        power = _vector(power, self.network.n_nodes)
        with _trace.span("steady", n_nodes=self.network.n_nodes):
            temps = self._core.solve_linear(power + self.network.boundary, self._last)
        temps = _finite(temps, "steady-state solve")
        if self._core.warm_start:
            self._last = temps
        return temps

    @property
    def memo(self) -> dict:
        """Results that depend on ``G`` alone, kept on the linear core.

        The exact core is the LU store's handle, so every exact solver
        of the same matrix (systems that differ only in the boundary
        vector, such as an inlet sweep) shares one memo, freed with the
        LU. A krylov core is private to its solver, so nothing derived
        by GMRES reaches an exact solver. Callers key entries by what
        else they depend on.
        """
        return self._core.memo

    def solve_many(self, powers: np.ndarray, boundary: bool = True) -> np.ndarray:
        """Equilibrium fields for many injections at once.

        ``powers`` has shape ``(n_nodes, k)``; returns the same shape.
        On the exact core this is one multi-RHS triangular solve whose
        columns agree with separate :meth:`solve` calls to within LU
        roundoff (~1e-14 K — SuperLU uses blocked kernels for multiple
        right-hand sides). Blocks start cold on the krylov core.
        ``boundary=False`` solves ``G T = P`` without the boundary
        vector: the response to ``P`` alone, a property of the matrix.
        """
        powers = _block(powers, self.network.n_nodes)
        if boundary:
            powers = powers + self.network.boundary[:, None]
        with _trace.span(
            "steady", n_nodes=self.network.n_nodes, n_rhs=powers.shape[1]
        ):
            temps = self._core.solve_linear_many(powers)
        return _finite(temps, "steady-state solve")


class TransientSolver:
    """Backward-Euler transient integrator.

    Parameters
    ----------
    network:
        The assembled RC network.
    dt:
        Time step in seconds (the paper's 100 ms sampling interval by
        default at the call sites).
    """

    def __init__(self, network: RCNetwork, dt: float) -> None:
        self._c_over_dt, matrix = _step_matrix(network, dt)
        self.network = network
        self.dt = dt
        self._core = self._linear_core(matrix)

    def _linear_core(self, matrix: KeyedMatrix) -> "Factorization | _KrylovCore":
        return factorize(matrix, "transient")

    def step(self, temperatures: np.ndarray, power: np.ndarray) -> np.ndarray:
        """Advance one time step; returns the new temperature vector."""
        n = self.network.n_nodes
        temperatures = _vector(temperatures, n)
        # (C/dt T + P) + b, summed in place.
        rhs = self._c_over_dt * temperatures
        rhs += _vector(power, n)
        rhs += self.network.boundary
        return _finite(self._core.solve_linear(rhs, temperatures), "transient step")

    def run(
        self,
        temperatures: np.ndarray,
        power: np.ndarray,
        n_steps: int,
    ) -> np.ndarray:
        """Advance ``n_steps`` with constant power; returns the final state."""
        if n_steps < 0:
            raise SolverError("n_steps must be non-negative")
        state = np.asarray(temperatures, dtype=float)
        for _ in range(n_steps):
            state = self.step(state, power)
        return state


# --- iterative core: neighbor-preconditioned GMRES ---------------------------
#
# A sweep over ``thermal_params.*`` (or grid/geometry) changes the
# matrix *values* but not its sparsity structure, and nearby design
# points produce nearly identical systems. The iterative core exploits
# that: instead of a fresh sparse LU per design point, it solves with
# preconditioned GMRES (the advection rows make G asymmetric, so CG is
# out) using the *closest already-factorized neighbor's* LU as the
# preconditioner, and only factorizes when no usable neighbor exists or
# the iteration stalls.

KRYLOV_TOLERANCE = 1.0e-12
"""True relative residual (``||b - Ax|| / ||b||``) each Krylov linear
solve is driven to and verified against, read at solve time. Measured,
not guessed: the loosest decade that keeps temperature trajectories
within :data:`KRYLOV_TEMPERATURE_TOLERANCE` of the exact LU path.
1e-11 drifts ~1e-7 K on a 48x48 design sweep and 1.7e-6 K on a 32x32
steady characterization (the steady ``G`` is ill-conditioned); 1e-12
stays near 1e-8 K, the agreement the earlier preconditioned-residual
stop at 1e-10 reached by overshooting."""

KRYLOV_TEMPERATURE_TOLERANCE = 1.0e-6
"""Documented accuracy contract of ``solver="krylov"``: maximum
absolute temperature difference (K) versus ``solver="exact"`` on the
same config. CI gates a small krylov-vs-exact sweep on this bound.
Well below the 0.5 K controller hysteresis and the paper's reported
0.1 K sensor resolution."""

KRYLOV_MAX_ITERATIONS = 64
"""GMRES iteration budget per solve (one un-restarted cycle), read at
solve time. A usable neighbor preconditioner converges in a handful
of iterations; hitting this budget means the neighbor was too far
away, and the solver falls back to an exact factorization of its own
matrix."""

_KRYLOV_STAT_KEYS = (
    "preconditioner_hits",
    "preconditioner_misses",
    "fallbacks",
    "iterations",
    "gmres_solves",
    "direct_solves",
)
_KRYLOV_COUNTERS = {
    key: _metrics.counter("solver.krylov." + key) for key in _KRYLOV_STAT_KEYS
}
"""The monotonic ``solver.krylov.*`` counters (measure a campaign by
diffing two :func:`repro.telemetry.metrics.snapshot`\\ s).
``preconditioner_hits``/``preconditioner_misses`` count solver
constructions that found / failed to find a retained neighbor LU (a
hit at distance 0.0 is the design point's own LU);
``fallbacks`` counts GMRES solves that missed the residual bar (budget
spent or a broken-down step) and forced an exact factorization;
``iterations``/``gmres_solves`` accumulate inner GMRES work;
``direct_solves`` counts solves served by an exact LU (own
factorization, distance-0 neighbor, or post-fallback)."""


def _bump_krylov(**deltas: int) -> None:
    for key, delta in deltas.items():
        _KRYLOV_COUNTERS[key].inc(delta)


def structure_signature(network: RCNetwork) -> tuple:
    """Hashable identity of a network's sparsity *structure*.

    Two networks share a signature exactly when their conductance
    matrices have the same shape and sparsity pattern — the condition
    for one network's LU to be a meaningful preconditioner for the
    other. Assembly is canonical (sorted CSR), so the pattern hash is
    deterministic.
    """
    csr = network.conductance.tocsr()
    digest = hashlib.sha256()
    digest.update(np.asarray(csr.indptr).tobytes())
    digest.update(np.asarray(csr.indices).tobytes())
    return (csr.shape[0], int(csr.nnz), digest.hexdigest()[:16])


_PARAM_FIELDS = tuple(f.name for f in dataclass_fields(ThermalParams))


def _params_vector(params: ThermalParams) -> np.ndarray:
    """The swept thermal parameters as a float vector (distance space)."""
    return np.array([float(getattr(params, name)) for name in _PARAM_FIELDS])


def params_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Scalar distance between two thermal-parameter vectors.

    Sum of symmetric relative per-field differences — scale-free, so a
    1% change in ``resistance_scale`` and a 1% change in
    ``inlet_temperature`` count the same, and identical params are at
    distance exactly 0.0.
    """
    num = np.abs(a - b)
    den = np.abs(a) + np.abs(b)
    with np.errstate(invalid="ignore"):
        rel = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
    return float(rel.sum())


class NeighborFactorCache:
    """LRU pool of retained LU factorizations for Krylov preconditioning.

    Entries are keyed by ``(structure, params)`` where ``structure`` is
    a :func:`structure_signature`-style tuple (grid shape + sparsity
    pattern + setting/dt) and ``params`` the
    :class:`~repro.thermal.rc_network.ThermalParams` the matrix was
    assembled from. :meth:`nearest` returns the retained LU with the
    same structure whose parameter vector minimizes
    :func:`params_distance` — the preconditioner a Krylov solver steps
    with. Distance 0.0 means identical params, hence the identical
    design point, whose LU solves directly with no iteration at all.
    Thread-safe; least recently used entries evict beyond ``capacity``
    (each retained LU at 64x64 is tens of MB, so the pool must stay
    small).
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise SolverError("neighbor cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, tuple[np.ndarray, Factorization]]" = (
            OrderedDict()
        )

    def nearest(
        self, structure: tuple, params_vec: np.ndarray
    ) -> Optional[tuple[Factorization, float]]:
        """Closest same-structure retained LU, as ``(lu, distance)``."""
        with self._lock:
            best_key, best_lu, best_dist = None, None, np.inf
            for (skey, _), (vec, lu) in self._entries.items():
                if skey != structure:
                    continue
                dist = params_distance(vec, params_vec)
                if dist < best_dist:
                    best_key, best_lu, best_dist = (skey, _), lu, dist
            if best_lu is None:
                return None
            self._entries.move_to_end(best_key)
            return best_lu, best_dist

    def retain(
        self,
        structure: tuple,
        params: ThermalParams,
        lu: Factorization,
    ) -> None:
        """Add (or refresh) a factorization; evicts LRU past capacity."""
        key = (structure, params)
        with self._lock:
            self._entries[key] = (_params_vector(params), lu)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_neighbor_cache = NeighborFactorCache()
"""Process-wide preconditioner pool. Shared across every
``solver="krylov"`` system in the process, so a sweep's design points
reuse each other's factorizations no matter how the batch planner
groups them (the system memo's small capacity means *systems* come and
go; retained LUs outlive them)."""


def neighbor_factor_cache() -> NeighborFactorCache:
    """The process-wide :class:`NeighborFactorCache`."""
    return _neighbor_cache


def clear_neighbor_cache() -> None:
    """Drop every retained preconditioner LU (frees their memory)."""
    _neighbor_cache.clear()


def _right_gmres(matrix, rhs, x0, psolve, tol, max_iterations):
    """One un-restarted cycle of right-preconditioned GMRES.

    Solves ``matrix @ x = rhs`` from ``x0`` (zero when ``None``) with
    ``psolve`` as ``M^-1``. The basis ``Z = M^-1 V`` is kept (Saad 1993,
    flexible GMRES), so ``x = x0 + Z y`` needs no final
    preconditioner solve and each Arnoldi step costs exactly one
    ``psolve`` and one matvec. Under right preconditioning the Givens
    estimate is the residual of ``x`` itself, so the cycle stops once it
    reaches ``tol * ||rhs||``, after ``max_iterations`` steps, or at a
    zero or non-finite Givens denominator (the failed step is dropped).

    Returns ``(x, iterations, residual)``: ``iterations`` counts
    preconditioner applications and ``residual`` is the true relative
    residual ``||rhs - matrix @ x|| / ||rhs||``, recomputed explicitly
    (NaN when ``x`` is not finite). The caller judges it.
    """
    scale = max(float(np.linalg.norm(rhs)), 1.0e-300)
    if x0 is None:
        x0, r0 = np.zeros_like(rhs), rhs
    else:
        r0 = rhs - matrix @ x0
    beta = float(np.linalg.norm(r0))
    target = tol * scale
    if beta <= target:
        return x0.copy(), 0, beta / scale
    basis, search = [r0 / beta], []
    hessenberg, cosines, sines = [], [], []
    g = [beta]
    iterations = 0
    for j in range(max_iterations):
        z = psolve(basis[j])
        iterations += 1
        w = matrix @ z
        column = []
        for v in basis:
            h = float(w @ v)
            w -= h * v
            column.append(h)
        h_next = float(np.linalg.norm(w))
        for i in range(j):
            c, s = cosines[i], sines[i]
            column[i], column[i + 1] = (
                c * column[i] + s * column[i + 1],
                c * column[i + 1] - s * column[i],
            )
        denom = math.hypot(column[j], h_next)
        if not (denom > 0.0 and math.isfinite(denom)):
            break
        c, s = column[j] / denom, h_next / denom
        column[j] = denom
        cosines.append(c)
        sines.append(s)
        hessenberg.append(column)
        search.append(z)
        g.append(-s * g[j])
        g[j] *= c
        if abs(g[j + 1]) <= target or h_next == 0.0:  # invariant space: exact
            break
        basis.append(w / h_next)
    k = len(search)
    y = g[:k]
    for i in range(k - 1, -1, -1):
        y[i] = (y[i] - sum(hessenberg[m][i] * y[m] for m in range(i + 1, k))) / (
            hessenberg[i][i]
        )
    x = x0.copy()
    for coeff, z in zip(y, search):
        x += coeff * z
    return x, iterations, float(np.linalg.norm(rhs - matrix @ x)) / scale


class _KrylovCore:
    """The iterative linear core: neighbor-LU preconditioned GMRES.

    Owns one system matrix and solves ``A x = b`` with
    :func:`_right_gmres`, right-preconditioned by the closest retained
    LU in the :class:`NeighborFactorCache` (one LU solve per
    iteration), and keeps the invariant: every answer it returns
    satisfies ``||b - Ax|| <= KRYLOV_TOLERANCE * ||b||`` (verified with
    an explicit residual, not trusted from the iteration), or an exact
    LU produced it. The ``gmres`` span records ``iterations`` and the
    verified relative ``residual``. A neighbor at distance 0.0
    is this very design point (canonical assembly makes its matrix
    bit-identical), so its LU solves direct. The first design point of
    a structure (no retained neighbor) and any stalled iteration
    factorize exactly — so krylov mode is never *less* robust than
    exact, only cheaper when neighbors exist. Its ``memo`` is its own,
    never the borrowed LU's, so GMRES results stay on the krylov tier.
    """

    warm_start = True
    """Successive solves start GMRES from the caller's guess."""

    def __init__(
        self,
        matrix: KeyedMatrix,
        structure: tuple,
        params: ThermalParams,
        cache: Optional[NeighborFactorCache],
    ) -> None:
        self.structure = structure
        self._params = params
        self._cache = cache if cache is not None else _neighbor_cache
        self._keyed = matrix
        self._matrix = matrix.matrix.tocsr()
        self._lu: Optional[Factorization] = None
        self._precond: Optional[Factorization] = None
        self.memo: dict = {}
        near = self._cache.nearest(structure, _params_vector(params))
        if near is None:
            _bump_krylov(preconditioner_misses=1)
            self._factorize()
            return
        _bump_krylov(preconditioner_hits=1)
        lu, distance = near
        if distance == 0.0:
            self._lu = lu
        else:
            self._precond = lu

    def _factorize(self) -> Factorization:
        """Exact LU of *this* matrix; retained for future neighbors."""
        if self._lu is None:
            self._lu = factorize(self._keyed, "krylov")
            self._cache.retain(self.structure, self._params, self._lu)
        return self._lu

    def solve_linear(self, rhs: np.ndarray, x0: Optional[np.ndarray]) -> np.ndarray:
        """Solve ``A x = rhs`` to :data:`KRYLOV_TOLERANCE`, from ``x0``."""
        if self._lu is not None:
            _bump_krylov(direct_solves=1)
            return self._lu.solve(rhs)
        with _trace.span("gmres", n_nodes=self._matrix.shape[0]) as gmres_span:
            x, iterations, residual = _right_gmres(
                self._matrix, rhs, x0, self._precond.solve,
                KRYLOV_TOLERANCE, KRYLOV_MAX_ITERATIONS,
            )
            gmres_span.set_attrs(iterations=iterations, residual=residual)
        _bump_krylov(gmres_solves=1, iterations=iterations)
        # The contract is the true residual, recomputed by the kernel.
        if residual <= KRYLOV_TOLERANCE:
            return x
        # Stalled (or residual floor unmet): this neighbor is not good
        # enough — factorize our own matrix and answer exactly. The LU
        # is kept, so subsequent solves of this core are direct.
        _bump_krylov(fallbacks=1, direct_solves=1)
        return self._factorize().solve(rhs)

    def solve_linear_many(self, rhs: np.ndarray) -> np.ndarray:
        """Column-by-column cold :meth:`solve_linear` (GMRES is single-RHS)."""
        out = np.empty_like(rhs)
        for c in range(rhs.shape[1]):
            out[:, c] = self.solve_linear(np.ascontiguousarray(rhs[:, c]), None)
        return out


class KrylovTransientSolver(TransientSolver):
    """Backward-Euler stepping on the GMRES core.

    Drop-in for :class:`TransientSolver` that does *not* factorize its
    own system matrix when a nearby design point's LU is retained in
    the :class:`NeighborFactorCache` (``cache``, the process-wide pool
    by default): each step solves ``(C/dt + G) T' = (C/dt) T + P + b``
    iteratively, preconditioned by the closest neighbor, warm-started
    from the current state. Results agree with the exact path to
    :data:`KRYLOV_TEMPERATURE_TOLERANCE`; a stalled iteration falls
    back to an exact factorization, after which stepping is direct.
    ``structure`` is the pool key (default: the network's
    :func:`structure_signature` plus ``dt``).
    """

    def __init__(
        self,
        network: RCNetwork,
        dt: float,
        params: ThermalParams,
        structure: Optional[tuple] = None,
        cache: Optional[NeighborFactorCache] = None,
    ) -> None:
        if structure is None:
            structure = structure_signature(network) + ("dt", float(dt))
        self._krylov = (structure, params, cache)
        super().__init__(network, dt)

    def _linear_core(self, matrix: KeyedMatrix) -> _KrylovCore:
        return _KrylovCore(matrix, *self._krylov)

    step = TransientSolver.step


class KrylovSteadySolver(SteadyStateSolver):
    """Steady-state ``G T = P + b`` on the GMRES core.

    Drop-in for :class:`SteadyStateSolver` under ``solver="krylov"``
    (``structure`` defaults to the network's
    :func:`structure_signature` plus ``"steady"``). Consecutive solves
    warm-start from the previous solution — the leakage fixed point's
    successive iterates differ by well under a kelvin, so after the
    first solve GMRES converges in very few iterations.
    """

    def __init__(
        self,
        network: RCNetwork,
        params: ThermalParams,
        structure: Optional[tuple] = None,
        cache: Optional[NeighborFactorCache] = None,
    ) -> None:
        if structure is None:
            structure = structure_signature(network) + ("steady",)
        self._krylov = (structure, params, cache)
        super().__init__(network)

    def _linear_core(self, matrix: KeyedMatrix) -> _KrylovCore:
        return _KrylovCore(matrix, *self._krylov)

    solve = SteadyStateSolver.solve
    solve_many = SteadyStateSolver.solve_many
