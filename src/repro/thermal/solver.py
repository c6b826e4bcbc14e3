"""Steady-state and transient solvers for the thermal RC network.

The network ODE is ``C dT/dt = -G T + P + b`` with diagonal C. The
transient solver uses backward Euler::

    (C/dt + G) T_{n+1} = (C/dt) T_n + P + b

which is unconditionally stable (the paper steps at the 100 ms sampling
interval, comparable to the stack's thermal time constant). The system
matrix depends only on (G, dt), so its sparse LU comes from a
process-wide store keyed by matrix content (:func:`factorize`) and each
step costs a pair of triangular solves.
"""

from __future__ import annotations

import hashlib
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
from repro.thermal.rc_network import RCNetwork, ThermalParams

_FACTORIZATIONS = _metrics.counter("solver.factorizations")
"""Monotonic count of sparse LU factorizations this process has
performed — LU-store misses, whatever tier asked — kept in the
process-wide :mod:`repro.telemetry` registry (thread-safe increments).
Factorizing is the expensive, cacheable step: a campaign must pay once
per distinct matrix, and ``benchmarks/bench_hotpath.py`` plus the CI
perf job gate on deltas of this counter rather than on wall-clock."""

_LU_STORE_HITS = _metrics.counter("solver.lu_store.hits")
"""LU-store hits (factorizations saved), labeled by the asking tier:
``kind=steady|transient|krylov``."""


def factorization_count() -> int:
    """LU factorizations performed so far in this process.

    Byte-compatible shim over the ``solver.factorizations`` telemetry
    counter. Monotonic; callers measure a campaign by snapshotting
    before and after (there is deliberately no reset here — concurrent
    measurement scopes would clobber each other's baselines)."""
    return _FACTORIZATIONS.value()


class Factorization:
    """A sparse LU held by solvers and weakly by the LU store.

    ``SuperLU`` objects cannot be weakly referenced; this handle can,
    so the store forgets an LU with its last holder. ``solve`` is the
    LU's own bound method (no extra Python frame per solve).
    """

    __slots__ = ("lu", "solve", "digest", "__weakref__")

    def __init__(self, lu: spla.SuperLU, digest: str) -> None:
        self.lu = lu
        self.solve = lu.solve
        self.digest = digest


_lu_store: "weakref.WeakValueDictionary[str, Factorization]" = (
    weakref.WeakValueDictionary()
)
_lu_store_lock = threading.Lock()


def factorize(matrix: sp.spmatrix, kind: str) -> Factorization:
    """The LU of ``matrix`` from the process-wide store, keyed by the
    sha256 of its shape and CSC arrays; factorized only on a miss.

    Every exact factorization (steady, transient, TALB weights, the
    krylov tier's own) comes through here, so a matrix is factorized
    once however many systems share it — an inlet sweep moves only the
    boundary vector, so its points share every LU. Identical CSC arrays
    give an identical LU, so sharing never changes a result bit.
    ``kind`` (``steady``, ``transient`` or ``krylov``) labels the hit
    counter and the ``factorize`` span. Two threads missing on the same
    matrix at once may both factorize; the first stored handle wins.
    """
    csc = matrix.tocsc()
    hasher = hashlib.sha256(repr(csc.shape).encode())
    for array in (csc.indptr, csc.indices, csc.data):
        hasher.update(np.ascontiguousarray(array).tobytes())
    digest = hasher.hexdigest()
    with _lu_store_lock:
        hit = _lu_store.get(digest)
    if hit is not None:
        _LU_STORE_HITS.inc(kind=kind)
        return hit
    with _trace.span(
        "factorize", kind=kind, n_nodes=csc.shape[0], digest=digest[:12]
    ):
        try:
            lu = spla.splu(csc)
        except RuntimeError as exc:
            raise SolverError(f"{kind} factorization failed: {exc}") from exc
    _FACTORIZATIONS.inc()
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


def _block(array, n: int, like: Optional[np.ndarray] = None) -> np.ndarray:
    """``array`` as an ``(n, k)`` float matrix (shaped like ``like``)."""
    out = np.asarray(array, dtype=float)
    if out.ndim != 2 or out.shape[0] != n or (
        like is not None and out.shape != like.shape
    ):
        raise SolverError(f"matrix has shape {out.shape}, expected ({n}, k)")
    return out


def _finite(temps: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(temps)):
        raise SolverError(f"{what} produced non-finite temperatures")
    return temps


def _c_over_dt(network: RCNetwork, dt: float) -> np.ndarray:
    """The backward-Euler diagonal ``C/dt``, validated."""
    if dt <= 0.0:
        raise SolverError("time step must be positive")
    c_over_dt = network.capacitance / dt
    if np.any(c_over_dt < 0.0):
        raise SolverError("negative capacitance in network")
    return c_over_dt


class SteadyStateSolver:
    """Solves ``G T = P + b`` for the equilibrium temperature field."""

    def __init__(self, network: RCNetwork) -> None:
        self.network = network
        self._lu = factorize(network.conductance, "steady")

    def solve(self, power: np.ndarray) -> np.ndarray:
        """Equilibrium temperatures for a per-node power injection (W)."""
        power = _vector(power, self.network.n_nodes)
        with _trace.span("steady", n_nodes=self.network.n_nodes):
            temps = self._lu.solve(power + self.network.boundary)
        return _finite(temps, "steady-state solve")

    def solve_many(self, powers: np.ndarray) -> np.ndarray:
        """Equilibrium fields for many injections at once.

        ``powers`` has shape ``(n_nodes, k)``; returns the same shape.
        One multi-RHS triangular solve; columns agree with separate
        :meth:`solve` calls to within LU roundoff (~1e-14 K — SuperLU
        uses blocked kernels for multiple right-hand sides).
        """
        powers = _block(powers, self.network.n_nodes)
        with _trace.span(
            "steady", n_nodes=self.network.n_nodes, n_rhs=powers.shape[1]
        ):
            temps = self._lu.solve(powers + self.network.boundary[:, None])
        return _finite(temps, "steady-state solve")


class _Stepper:
    """The constant-power ``run`` loop shared by both transient tiers."""

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


class TransientSolver(_Stepper):
    """Backward-Euler transient integrator with a stored factorization.

    Parameters
    ----------
    network:
        The assembled RC network.
    dt:
        Time step in seconds (the paper's 100 ms sampling interval by
        default at the call sites).
    """

    def __init__(self, network: RCNetwork, dt: float) -> None:
        self._c_over_dt = _c_over_dt(network, dt)
        self.network = network
        self.dt = dt
        self._lu = factorize(
            network.conductance + sp.diags(self._c_over_dt), "transient"
        )

    def step(self, temperatures: np.ndarray, power: np.ndarray) -> np.ndarray:
        """Advance one time step; returns the new temperature vector."""
        n = self.network.n_nodes
        temperatures = _vector(temperatures, n)
        rhs = self._c_over_dt * temperatures + _vector(power, n) + self.network.boundary
        return _finite(self._lu.solve(rhs), "transient step")

    def step_many(self, temperatures: np.ndarray, powers: np.ndarray) -> np.ndarray:
        """Advance many independent states one step at once.

        ``temperatures`` and ``powers`` have shape ``(n_nodes, k)`` —
        one column per independent run sharing this factorization;
        returns the same shape. One multi-RHS triangular solve;
        columns agree with separate :meth:`step` calls to within LU
        roundoff (~1e-14 K — SuperLU uses blocked kernels for multiple
        right-hand sides), which is why the cohort runner's bitwise
        default steps per column and this path is opt-in.
        """
        temperatures = _block(temperatures, self.network.n_nodes)
        rhs = (
            self._c_over_dt[:, None] * temperatures
            + _block(powers, self.network.n_nodes, like=temperatures)
            + self.network.boundary[:, None]
        )
        return _finite(self._lu.solve(rhs), "transient step")


# --- iterative tier: neighbor-preconditioned Krylov solvers -------------------
#
# A sweep over ``thermal_params.*`` (or grid/geometry) changes the
# matrix *values* but not its sparsity structure, and nearby design
# points produce nearly identical systems. The classes below exploit
# that: instead of a fresh sparse LU per design point, they solve with
# preconditioned GMRES (the advection rows make G asymmetric, so CG is
# out) using the *closest already-factorized neighbor's* LU as the
# preconditioner, and only factorize when no usable neighbor exists or
# the iteration stalls.

KRYLOV_TOLERANCE = 1.0e-10
"""Relative residual (``||b - Ax|| / ||b||``) each Krylov linear solve
is driven to. Tight enough that temperature trajectories agree with
the exact LU path to :data:`KRYLOV_TEMPERATURE_TOLERANCE`."""

KRYLOV_TEMPERATURE_TOLERANCE = 1.0e-6
"""Documented accuracy contract of ``solver="krylov"``: maximum
absolute temperature difference (K) versus ``solver="exact"`` on the
same config. CI gates a small krylov-vs-exact sweep on this bound.
Well below the 0.5 K controller hysteresis and the paper's reported
0.1 K sensor resolution."""

KRYLOV_MAX_ITERATIONS = 64
"""GMRES iteration budget per solve (one un-restarted cycle). A
usable neighbor preconditioner converges in a handful of iterations;
hitting this budget means the neighbor was too far away, and the
solver falls back to an exact factorization of its own matrix."""

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


def krylov_stats() -> dict:
    """Process-wide Krylov solver counters (monotonic, like
    :func:`factorization_count`; snapshot before/after to measure).

    Byte-compatible shim over the ``solver.krylov.*`` telemetry
    counters; always a freshly built dict, so mutating the returned
    mapping cannot corrupt the live counters.

    ``preconditioner_hits``/``preconditioner_misses`` count solver
    constructions that found / failed to find a retained neighbor LU;
    ``fallbacks`` counts GMRES stalls that forced an exact
    factorization; ``iterations``/``gmres_solves`` accumulate inner
    GMRES work; ``direct_solves`` counts solves served by an exact LU
    (own factorization, exact cache hit, or post-fallback).
    """
    return {key: counter.value() for key, counter in _KRYLOV_COUNTERS.items()}


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
    :func:`params_distance` — the preconditioner a
    :class:`KrylovTransientSolver` steps with; :meth:`exact` shortcuts
    the identical design point (same structure *and* params), whose LU
    solves directly with no iteration at all. Thread-safe; least
    recently used entries evict beyond ``capacity`` (each retained LU
    at 64x64 is tens of MB, so the pool must stay small).
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise SolverError("neighbor cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, tuple[np.ndarray, Factorization]]" = (
            OrderedDict()
        )

    def exact(self, structure: tuple, params: ThermalParams) -> Optional[Factorization]:
        """The retained LU of this exact design point, if any."""
        key = (structure, params)
        with self._lock:
            hit = self._entries.get(key)
            if hit is None:
                return None
            self._entries.move_to_end(key)
            return hit[1]

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


def _gmres(matrix, rhs, x0, M, rtol, restart, maxiter, callback):
    """scipy.sparse.linalg.gmres across the ``tol``->``rtol`` rename."""
    try:
        return spla.gmres(
            matrix, rhs, x0=x0, M=M, rtol=rtol, atol=0.0,
            restart=restart, maxiter=maxiter,
            callback=callback, callback_type="pr_norm",
        )
    except TypeError:  # pragma: no cover - scipy < 1.12
        return spla.gmres(
            matrix, rhs, x0=x0, M=M, tol=rtol, atol=0.0,
            restart=restart, maxiter=maxiter,
            callback=callback, callback_type="pr_norm",
        )


class _KrylovLinearSolver:
    """Shared machinery of the Krylov steady/transient solvers.

    Owns one system matrix and solves ``A x = b`` with neighbor-LU
    preconditioned GMRES, maintaining the invariant: every answer it
    returns satisfies ``||b - Ax|| <= tolerance * ||b||`` (verified
    with an explicit residual, not trusted from the iteration), or an
    exact LU produced it. The first design point of a structure (no
    retained neighbor) and any stalled iteration factorize exactly —
    so krylov mode is never *less* robust than exact, only cheaper
    when neighbors exist.
    """

    def __init__(
        self,
        matrix: sp.spmatrix,
        structure: tuple,
        params: ThermalParams,
        tolerance: float,
        max_iterations: int,
        cache: Optional[NeighborFactorCache],
    ) -> None:
        if tolerance <= 0.0:
            raise SolverError("krylov tolerance must be positive")
        if max_iterations < 1:
            raise SolverError("krylov max_iterations must be >= 1")
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)
        self.structure = structure
        self._params = params
        self._cache = cache if cache is not None else _neighbor_cache
        self._matrix = matrix.tocsr()
        self._lu: Optional[Factorization] = None
        self._precond: Optional[Factorization] = None
        self.neighbor_distance: Optional[float] = None
        self.fallback_count = 0
        lu = self._cache.exact(structure, params)
        if lu is not None:
            # Same structure + params => bit-identical matrix (canonical
            # assembly), so this LU solves exactly, no iteration needed.
            self._lu = lu
            _bump_krylov(preconditioner_hits=1)
            return
        near = self._cache.nearest(structure, _params_vector(params))
        if near is not None:
            self._precond, self.neighbor_distance = near
            _bump_krylov(preconditioner_hits=1)
        else:
            _bump_krylov(preconditioner_misses=1)
            self._factorize()

    def _factorize(self) -> Factorization:
        """Exact LU of *this* matrix; retained for future neighbors."""
        if self._lu is None:
            self._lu = factorize(self._matrix, "krylov")
            self._cache.retain(self.structure, self._params, self._lu)
        return self._lu

    def solve_linear(self, rhs: np.ndarray, x0: Optional[np.ndarray]) -> np.ndarray:
        """Solve ``A x = rhs`` to the residual tolerance."""
        if self._lu is not None:
            _bump_krylov(direct_solves=1)
            return self._lu.solve(rhs)
        n = self._matrix.shape[0]
        precond = spla.LinearOperator((n, n), matvec=self._precond.solve)
        iterations = [0]

        def _count(_pr_norm: float) -> None:
            iterations[0] += 1

        with _trace.span("gmres", n_nodes=n) as gmres_span:
            x, info = _gmres(
                self._matrix, rhs, x0=x0, M=precond, rtol=self.tolerance,
                restart=self.max_iterations, maxiter=1, callback=_count,
            )
            gmres_span.set_attrs(iterations=iterations[0], info=int(info))
        _bump_krylov(gmres_solves=1, iterations=iterations[0])
        if info == 0 and np.all(np.isfinite(x)):
            # Trust but verify: the documented contract is the true
            # residual, not GMRES's preconditioned estimate.
            rhs_norm = float(np.linalg.norm(rhs))
            residual = float(np.linalg.norm(rhs - self._matrix @ x))
            if residual <= self.tolerance * max(rhs_norm, 1.0e-300):
                return x
        # Stalled (or residual floor unmet): this neighbor is not good
        # enough — factorize our own matrix and answer exactly. The LU
        # is kept, so subsequent steps of this solver are direct.
        self.fallback_count += 1
        _bump_krylov(fallbacks=1, direct_solves=1)
        return self._factorize().solve(rhs)

    def solve_linear_many(
        self, rhs: np.ndarray, x0: Optional[np.ndarray]
    ) -> np.ndarray:
        """Column-by-column :meth:`solve_linear` (GMRES is single-RHS)."""
        out = np.empty_like(rhs)
        for c in range(rhs.shape[1]):
            guess = None if x0 is None else np.ascontiguousarray(x0[:, c])
            out[:, c] = self.solve_linear(np.ascontiguousarray(rhs[:, c]), guess)
        return out


class KrylovTransientSolver(_Stepper):
    """Backward-Euler stepping via neighbor-preconditioned GMRES.

    Drop-in for :class:`TransientSolver` (same ``step``/``step_many``/
    ``run`` surface) that does *not* factorize its own system matrix
    when a nearby design point's LU is retained in the
    :class:`NeighborFactorCache`: each step solves
    ``(C/dt + G) T' = (C/dt) T + P + b`` iteratively, preconditioned by
    the closest neighbor, warm-started from the current state. Results
    agree with the exact path to :data:`KRYLOV_TEMPERATURE_TOLERANCE`;
    a stalled iteration falls back to an exact factorization
    (recorded in ``fallback_count``), after which stepping is direct.
    """

    def __init__(
        self,
        network: RCNetwork,
        dt: float,
        params: ThermalParams,
        structure: Optional[tuple] = None,
        tolerance: float = KRYLOV_TOLERANCE,
        max_iterations: int = KRYLOV_MAX_ITERATIONS,
        cache: Optional[NeighborFactorCache] = None,
    ) -> None:
        self._c_over_dt = _c_over_dt(network, dt)
        self.network = network
        self.dt = dt
        if structure is None:
            structure = structure_signature(network) + ("dt", float(dt))
        self._core = _KrylovLinearSolver(
            network.conductance + sp.diags(self._c_over_dt),
            structure, params, tolerance, max_iterations, cache,
        )

    @property
    def fallback_count(self) -> int:
        """Exact-factorization fallbacks this solver has performed."""
        return self._core.fallback_count

    @property
    def neighbor_distance(self) -> Optional[float]:
        """Parameter distance to the preconditioning neighbor (None if
        this solver factorized its own matrix up front)."""
        return self._core.neighbor_distance

    def step(self, temperatures: np.ndarray, power: np.ndarray) -> np.ndarray:
        """Advance one time step; returns the new temperature vector."""
        n = self.network.n_nodes
        temperatures = _vector(temperatures, n)
        rhs = self._c_over_dt * temperatures + _vector(power, n) + self.network.boundary
        out = self._core.solve_linear(rhs, x0=temperatures)
        return _finite(out, "transient step")

    def step_many(self, temperatures: np.ndarray, powers: np.ndarray) -> np.ndarray:
        """Advance many independent states one step (column-wise GMRES)."""
        temperatures = _block(temperatures, self.network.n_nodes)
        rhs = (
            self._c_over_dt[:, None] * temperatures
            + _block(powers, self.network.n_nodes, like=temperatures)
            + self.network.boundary[:, None]
        )
        out = self._core.solve_linear_many(rhs, x0=temperatures)
        return _finite(out, "transient step")


class KrylovSteadySolver:
    """Steady-state ``G T = P + b`` via neighbor-preconditioned GMRES.

    Drop-in for :class:`SteadyStateSolver` under ``solver="krylov"``.
    Consecutive solves warm-start from the previous solution — the
    leakage fixed point's successive iterates differ by well under a
    kelvin, so after the first solve GMRES converges in very few
    iterations.
    """

    def __init__(
        self,
        network: RCNetwork,
        params: ThermalParams,
        structure: Optional[tuple] = None,
        tolerance: float = KRYLOV_TOLERANCE,
        max_iterations: int = KRYLOV_MAX_ITERATIONS,
        cache: Optional[NeighborFactorCache] = None,
    ) -> None:
        self.network = network
        if structure is None:
            structure = structure_signature(network) + ("steady",)
        self._core = _KrylovLinearSolver(
            network.conductance, structure, params, tolerance, max_iterations, cache
        )
        self._last: Optional[np.ndarray] = None
        self._last_block: Optional[np.ndarray] = None

    @property
    def fallback_count(self) -> int:
        """Exact-factorization fallbacks this solver has performed."""
        return self._core.fallback_count

    def solve(self, power: np.ndarray) -> np.ndarray:
        """Equilibrium temperatures for a per-node power injection (W)."""
        power = _vector(power, self.network.n_nodes)
        with _trace.span("steady", tier="krylov", n_nodes=self.network.n_nodes):
            temps = self._core.solve_linear(
                power + self.network.boundary, x0=self._last
            )
        self._last = _finite(temps, "steady-state solve")
        return temps

    def solve_many(self, powers: np.ndarray) -> np.ndarray:
        """Equilibrium fields for many injections (column-wise GMRES)."""
        powers = _block(powers, self.network.n_nodes)
        x0 = self._last_block
        if x0 is not None and x0.shape != powers.shape:
            x0 = None
        with _trace.span(
            "steady", tier="krylov",
            n_nodes=self.network.n_nodes, n_rhs=powers.shape[1],
        ):
            temps = self._core.solve_linear_many(
                powers + self.network.boundary[:, None], x0=x0
            )
        self._last_block = _finite(temps, "steady-state solve")
        return temps
