"""How ``factorize`` picks a SuperLU mode, and what each mode guarantees."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.errors import ConfigurationError, SolverError
from repro.geometry.stack import CoolingKind, build_stack
from repro.sim.cache import (
    CharacterizationCache,
    clear_system_memo,
    power_model_for,
    system_for,
)
from repro.sim.config import CoolingMode, PolicyKind, SimulationConfig
from repro.telemetry import trace
from repro.thermal.grid import ThermalGrid
from repro.thermal.rc_network import ThermalParams, build_network
from repro.thermal.solver import (
    KRYLOV_TOLERANCE,
    TransientSolver,
    _symmetric_mode_safe,
    _weakly_dominant_m_matrix,
    clear_lu_store,
    factorize,
)

from counters import Counters
from helpers import power_vector

FLOW = units.ml_per_minute(400.0)


def _liquid(nx=8, ny=8, flow=FLOW):
    grid = ThermalGrid(build_stack(2), nx=nx, ny=ny)
    return build_network(grid, ThermalParams(), cavity_flows=[flow])


def _air(nx=8, ny=8):
    grid = ThermalGrid(build_stack(2, cooling=CoolingKind.AIR), nx=nx, ny=ny)
    return build_network(grid, ThermalParams())


def _time_step_matrix(net, dt=0.1) -> sp.csc_matrix:
    return (net.conductance + sp.diags(net.capacitance / dt)).tocsc()


class TestClassifier:
    """The exact tier's rule: symmetric mode only for strictly
    row-dominant Z-matrices."""

    def test_liquid_time_step_matrix_is_symmetric_safe(self):
        assert _symmetric_mode_safe(_time_step_matrix(_liquid()))

    def test_air_time_step_matrix_is_symmetric_safe(self):
        assert _symmetric_mode_safe(_time_step_matrix(_air()))

    def test_long_time_step_is_still_symmetric_safe(self):
        assert _symmetric_mode_safe(_time_step_matrix(_liquid(), dt=10.0))

    def test_steady_conductance_is_pivoted(self):
        # Interior rows of G sum to roundoff: weakly dominant only.
        assert not _symmetric_mode_safe(_liquid().conductance.tocsc())
        assert not _symmetric_mode_safe(_air().conductance.tocsc())

    def test_positive_off_diagonal_is_pivoted(self):
        matrix = _time_step_matrix(_liquid()).tolil()
        matrix[0, 1] = 1.0e-6
        assert not _symmetric_mode_safe(matrix.tocsc())

    def test_zero_capacitance_row_is_pivoted(self):
        net = _liquid()
        conductance = net.conductance.tocsr()
        row_sums = np.asarray(conductance.sum(axis=1)).ravel()
        interior = int(np.argmin(np.abs(row_sums) / conductance.diagonal()))
        capacitance = net.capacitance.copy()
        capacitance[interior] = 0.0
        matrix = _time_step_matrix(replace(net, capacitance=capacitance))
        assert not _symmetric_mode_safe(matrix)

    def test_non_finite_entries_are_pivoted(self):
        matrix = _time_step_matrix(_liquid())
        matrix.data[matrix.indices == 0] = np.nan
        assert not _symmetric_mode_safe(matrix)

    def test_non_square_matrix_is_pivoted(self):
        assert not _symmetric_mode_safe(sp.csc_matrix(np.eye(3)[:, :2]))


def _interior_row(matrix) -> int:
    """The row of ``matrix`` (CSR) whose sum is closest to zero."""
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    return int(np.argmin(np.abs(row_sums) / matrix.diagonal()))


class TestKrylovPredicate:
    """The krylov tier's rule: an irreducibly diagonally dominant
    Z-matrix, the steady ``G``'s case, factorizes without pivoting."""

    def test_accepts_liquid_steady_conductance(self):
        for flow_ml_min in (50.0, 400.0, 1500.0):
            net = _liquid(flow=units.ml_per_minute(flow_ml_min))
            assert _weakly_dominant_m_matrix(net.conductance.tocsc())

    def test_accepts_air_steady_conductance(self):
        assert _weakly_dominant_m_matrix(_air().conductance.tocsc())

    def test_long_rows_get_their_summation_slack(self):
        # At 64x64 the air package's spreader row sums 4098 entries and
        # lands ~25 eps of its diagonal below zero: roundoff, not a sign.
        conductance = _air(nx=64, ny=64).conductance.tocsc()
        row_sums = np.bincount(conductance.indices, weights=conductance.data)
        assert np.min(row_sums / conductance.diagonal()) < -8 * np.finfo(float).eps
        assert _weakly_dominant_m_matrix(conductance)

    def test_accepts_time_step_matrix(self):
        assert _weakly_dominant_m_matrix(_time_step_matrix(_liquid()))

    def test_rejects_positive_off_diagonal(self):
        matrix = _liquid().conductance.tolil()
        matrix[0, 1] = 1.0e-6
        assert not _weakly_dominant_m_matrix(matrix.tocsc())

    def test_rejects_row_sum_negative_beyond_roundoff(self):
        matrix = _liquid().conductance.copy()  # assembled arrays are read-only
        row = _interior_row(matrix)
        start, end = matrix.indptr[row], matrix.indptr[row + 1]
        off = start + int(np.argmin(matrix.data[start:end]))  # an off-diagonal
        matrix.data[off] -= 1.0e-12 * matrix.diagonal()[row]
        assert not _weakly_dominant_m_matrix(matrix.tocsc())

    def test_rejects_reducible_matrix(self):
        # G next to a block with no path to a dominant row (a two-node
        # Laplacian): every row is weakly dominant, but it is singular.
        laplacian = sp.csc_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        matrix = sp.block_diag([_liquid().conductance, laplacian], format="csc")
        assert not _weakly_dominant_m_matrix(matrix)

    def test_rejects_coupling_through_an_explicit_zero(self):
        # Two strictly dominant nodes whose only link is a stored zero.
        matrix = sp.csc_matrix(
            (np.array([2.0, 0.0, 0.0, 1.0]), np.array([0, 1, 0, 1]),
             np.array([0, 2, 4])), shape=(2, 2),
        )
        assert matrix.nnz == 4
        assert not _weakly_dominant_m_matrix(matrix)

    def test_rejects_laplacian_without_a_dominant_row(self):
        laplacian = sp.csc_matrix(
            np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        )
        assert not _weakly_dominant_m_matrix(laplacian)

    def test_rejects_non_finite_and_non_square(self):
        matrix = _liquid().conductance.tocsc()
        matrix.data[0] = np.inf
        assert not _weakly_dominant_m_matrix(matrix)
        assert not _weakly_dominant_m_matrix(sp.csc_matrix(np.eye(3)[:, :2]))


class TestUnpivotedSteadyLU:
    """Direct solves on the krylov tier's unpivoted LU of ``G`` meet the
    tier's own residual bar."""

    @pytest.mark.parametrize("n", (16, 32, 48))
    def test_residual_meets_krylov_tolerance(self, n):
        net = _liquid(nx=n, ny=n)
        matrix = net.conductance
        clear_lu_store()
        lu = factorize(matrix, "krylov")
        assert lu.ordering == "symmetric" and not lu.exact
        power = power_vector(net.grid, {(0, f"core{i}"): 3.0 for i in range(8)})
        rhs = power + net.boundary
        temps = lu.solve(rhs)
        residual = np.linalg.norm(rhs - matrix @ temps) / np.linalg.norm(rhs)
        assert residual <= KRYLOV_TOLERANCE
        pivoted = factorize(matrix, "steady")
        assert pivoted.ordering == "pivoted"
        assert np.max(np.abs(temps - pivoted.solve(rhs))) <= 1.0e-10


class TestStoreKeysByMode:
    """An exact-tier request never receives a krylov-tier LU; a krylov
    request adopts whatever LU of its matrix is resident."""

    def test_exact_request_beside_a_krylov_lu(self):
        matrix = _liquid(nx=6, ny=6).conductance
        clear_lu_store()
        counts = Counters()
        krylov = factorize(matrix, "krylov")
        exact = factorize(matrix, "steady")
        assert counts.factorizations() == 2
        assert (krylov.ordering, exact.ordering) == ("symmetric", "pivoted")
        assert exact.exact and not krylov.exact
        assert factorize(matrix, "steady") is exact
        assert factorize(matrix, "krylov") is exact  # the exact LU first
        assert counts.factorizations() == 2

    def test_krylov_request_adopts_a_resident_exact_lu(self):
        matrix = _liquid(nx=6, ny=6).conductance
        clear_lu_store()
        exact = factorize(matrix, "steady")
        counts = Counters()
        assert factorize(matrix, "krylov") is exact
        assert counts.factorizations() == 0
        assert counts.delta("solver.lu_store.hits{kind=krylov}") == 1

    def test_time_step_lu_is_shared_across_tiers(self):
        matrix = _time_step_matrix(_liquid(nx=6, ny=6))
        clear_lu_store()
        krylov = factorize(matrix, "krylov")
        assert krylov.ordering == "symmetric" and krylov.exact
        assert factorize(matrix, "transient") is krylov


class TestFactorizeProvenance:
    """The ``factorize`` span and ``solver.lu.orderings`` counter record
    which mode each LU-store miss took."""

    @pytest.fixture
    def tracing(self):
        trace.enable(capacity=1024)
        trace.clear()
        yield
        trace.disable()
        trace.clear()

    def test_span_and_counter_name_the_ordering(self, tracing):
        net = _liquid(nx=6, ny=6)
        clear_lu_store()
        counts = Counters()
        steady = factorize(net.conductance, "steady")
        transient = factorize(_time_step_matrix(net), "transient")
        spans = [e for e in trace.events() if e["name"] == "factorize"]
        by_kind = {e["attrs"]["kind"]: e["attrs"] for e in spans}
        assert by_kind["steady"]["ordering"] == "pivoted"
        assert by_kind["transient"]["ordering"] == "symmetric"
        assert by_kind["steady"]["lu_nnz"] == steady.lu.nnz
        assert by_kind["transient"]["lu_nnz"] == transient.lu.nnz
        assert counts.factorizations() == 2
        orderings = "solver.lu.orderings{kind=%s,ordering=%s}"
        assert counts.delta(orderings % ("steady", "pivoted")) == 1
        assert counts.delta(orderings % ("transient", "symmetric")) == 1

    def test_store_hit_records_no_ordering(self):
        net = _liquid(nx=6, ny=6)
        held = factorize(_time_step_matrix(net), "transient")
        counts = Counters()
        assert factorize(_time_step_matrix(net), "transient") is held
        assert counts.factorizations() == 0
        assert counts.delta(
            "solver.lu.orderings{kind=transient,ordering=symmetric}"
        ) == 0

    def test_symmetric_mode_has_less_fill(self):
        matrix = _time_step_matrix(_liquid(nx=16, ny=16))
        clear_lu_store()
        symmetric = factorize(matrix, "transient")
        assert symmetric.lu.nnz < spla.splu(matrix).nnz


class TestSymmetricModeAccuracy:
    @settings(max_examples=20, deadline=None)
    @given(
        nx=st.integers(min_value=8, max_value=20),
        ny=st.integers(min_value=8, max_value=20),
        flow_ml_min=st.floats(min_value=50.0, max_value=1500.0),
        dt=st.floats(min_value=1.0e-3, max_value=10.0),
    )
    def test_matches_a_pivoted_lu(self, nx, ny, flow_ml_min, dt):
        net = _liquid(nx=nx, ny=ny, flow=units.ml_per_minute(flow_ml_min))
        matrix = _time_step_matrix(net, dt)
        assert _symmetric_mode_safe(matrix)
        lu = factorize(matrix, "transient")
        power = power_vector(net.grid, {(0, f"core{i}"): 3.0 for i in range(8)})
        rhs = net.capacitance / dt * np.full(net.n_nodes, 60.0) + power + net.boundary
        temps = lu.solve(rhs)
        residual = np.linalg.norm(rhs - matrix @ temps) / np.linalg.norm(rhs)
        assert residual <= 1.0e-12
        pivoted = spla.splu(matrix).solve(rhs)
        assert np.max(np.abs(temps - pivoted)) <= 1.0e-10


class TestInvalidInputs:
    def test_singular_zero_row_sum_matrix_raises(self):
        # A graph Laplacian: a Z-matrix whose rows sum to exactly zero.
        laplacian = sp.csc_matrix(
            np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        )
        assert not _symmetric_mode_safe(laplacian)
        with pytest.raises(SolverError, match="factorization failed"):
            factorize(laplacian, "steady")

    @pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), float("inf")])
    def test_time_step_must_be_finite_and_positive(self, dt):
        with pytest.raises(SolverError, match="time step"):
            TransientSolver(_liquid(nx=4, ny=4), dt=dt)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_capacitance_raises(self, bad):
        net = _liquid(nx=4, ny=4)
        capacitance = net.capacitance.copy()
        capacitance[3] = bad
        with pytest.raises(SolverError, match="non-finite capacitance"):
            TransientSolver(replace(net, capacitance=capacitance), dt=0.1)

    @pytest.mark.parametrize(
        "field",
        [
            "k_silicon",
            "silicon_vol_capacity",
            "interlayer_conductivity",
            "interlayer_vol_capacity",
            "r_beol_area",
            "tsv_conductivity",
            "resistance_scale",
            "air_resistance_scale",
        ],
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_thermal_params_name_the_bad_field(self, field, bad):
        with pytest.raises(ConfigurationError, match=field):
            ThermalParams(**{field: bad})


def _digest(*arrays) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(np.asarray(array, dtype=float)).tobytes())
    return hasher.hexdigest()[:16]


class TestSteadyCharacterizationIsBitwisePinned:
    """The exact tier's steady ``G`` stays on the pivoting path, so every
    artifact built from its LU is bitwise what it was before the
    symmetric mode existed.

    TALB's mirror-core weights are mathematically equal and ordered by
    LU roundoff alone; any change to the steady LU reorders them and
    changes dispatch. The weight, floor and initial-field pins were
    recorded with the plain ``spla.splu(csc)`` path for every matrix.
    The table is pinned on the unit-space path
    (``ThermalSystem.unit_response``), re-recorded when the flow table
    left the field-space fixed point: it moved by <4e-12 K, its caps by
    <4e-13. Re-recorded again when ``R`` became a boundary-free block
    shared by every system on the same steady LU (``base`` a separate
    column): the table moved by <4.2e-12 K, its caps by <3.5e-13, and
    the floor did not move. The initial field was re-recorded when exact
    steady fields became ``Phi p + phi`` on the unit-space loop's powers
    instead of six field solves: it moved by <1.8e-13 K.
    """

    WEIGHTS = {
        0: "073640c3db1ffea6",
        1: "450fc99509a24135",
        2: "ea442d909d3c4ee6",
        3: "db4953600e59890a",
        4: "988e2ae3ad0ef471",
    }
    TABLE = "522904144244dd81"
    FLOOR = 2
    INITIAL = "c74ebe80dd12472f"

    @pytest.fixture(scope="class")
    def characterized(self):
        clear_system_memo()
        config = SimulationConfig(
            nx=32,
            ny=32,
            cooling=CoolingMode.LIQUID_VARIABLE,
            policy=PolicyKind.TALB,
            benchmark_name="gzip",
        )
        system = system_for(config)
        yield config, system, power_model_for(config, system), CharacterizationCache()
        clear_system_memo()

    def test_talb_weights(self, characterized):
        config, system, _, cache = characterized
        for setting, expected in self.WEIGHTS.items():
            weights = cache.thermal_weights(system, setting, config).as_dict()
            assert _digest([weights[name] for name in system.core_names]) == expected

    def test_flow_table_and_floor(self, characterized):
        config, system, _, cache = characterized
        table = cache.table(system, config)
        caps = [table.utilization_cap(k) for k in range(table.char.n_settings)]
        assert _digest(table.char.utilizations, table.char.tmax, caps) == self.TABLE
        assert cache.floor(system, config) == self.FLOOR

    def test_steady_initial_field(self, characterized):
        config, system, power_model, _ = characterized
        field = system.steady_temperatures(
            power_model, config.spec.utilization, setting_index=0
        )
        assert _digest(field) == self.INITIAL
