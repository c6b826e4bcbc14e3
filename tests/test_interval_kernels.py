"""Per-interval kernels pinned bitwise to their reference forms.

* ``PowerModel.unit_power_vector`` (Python floats over the units) equals
  the array form it replaced (``tests/numpy_power.py``) bit for bit, for
  any sleep mix, with leakage on and off, and with ``None``, finite and
  NaN unit temperatures.
* ``ThermalGrid.unit_temperature_vector`` equals an independently
  built summing matvec ``M_sum @ T`` over the counts bit for bit, and
  that matvec adds each unit's cells from 0.0 in cell order (the order
  any faster readout must keep); a unit with no cells still raises.
* The solver's finiteness check raises on NaN, on an infinity and on a
  field holding both infinities, and passes a finite field whose sum
  overflows.
* The forecaster's running window extremes equal ``min``/``max`` of its
  history at every sample, window slides included.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.control.forecaster import TemperatureForecaster
from repro.errors import GeometryError, ModelError, SolverError
from repro.geometry.stack import CoolingKind, build_stack
from repro.power.components import PowerModel
from repro.power.leakage import LeakageModel
from repro.thermal.grid import ThermalGrid
from repro.thermal.solver import _finite

from numpy_power import numpy_unit_power_vector

kernel_settings = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_GRIDS = {
    n_layers: ThermalGrid(build_stack(n_layers, CoolingKind.LIQUID), nx=8, ny=8)
    for n_layers in (2, 4)
}
_MODELS = {
    (n_layers, leaky): PowerModel(
        grid.stack, leakage=LeakageModel() if leaky else None
    )
    for n_layers, grid in _GRIDS.items()
    for leaky in (True, False)
}

_utilization = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5]),
    st.floats(min_value=0.0, max_value=1.0),
)
# Wide enough that the leakage factor hits its 0.1 floor.
_temperature = st.one_of(
    st.floats(min_value=-150.0, max_value=250.0),
    st.just(math.nan),
)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestUnitPowerVector:
    @kernel_settings
    @given(
        n_layers=st.sampled_from([2, 4]),
        leaky=st.booleans(),
        data=st.data(),
        memory_intensity=st.floats(min_value=0.0, max_value=1.0),
        with_temperatures=st.booleans(),
    )
    def test_bitwise_equal_to_array_form(
        self, n_layers, leaky, data, memory_intensity, with_temperatures
    ):
        grid = _GRIDS[n_layers]
        model = _MODELS[(n_layers, leaky)]
        n_cores = len(grid.stack.core_names())
        utilization = data.draw(
            st.lists(_utilization, min_size=n_cores, max_size=n_cores)
        )
        asleep = data.draw(st.lists(st.booleans(), min_size=n_cores, max_size=n_cores))
        temperatures = None
        if with_temperatures:
            temperatures = np.array(
                data.draw(
                    st.lists(_temperature, min_size=grid.n_units, max_size=grid.n_units)
                )
            )
        args = (grid.unit_keys, utilization, asleep, memory_intensity, temperatures)
        got = model.unit_power_vector(*args)
        want = numpy_unit_power_vector(model, *args)
        assert _same_bits(got, want)

    def test_nan_temperature_propagates_except_on_gated_cores(self):
        grid = _GRIDS[2]
        model = _MODELS[(2, True)]
        n_cores = len(grid.stack.core_names())
        temperatures = np.full(grid.n_units, math.nan)
        asleep = [True] + [False] * (n_cores - 1)
        got = model.unit_power_vector(
            grid.unit_keys, [0.5] * n_cores, asleep, 0.5, temperatures
        )
        gated = grid.core_index[0]
        assert math.isfinite(got[gated])
        assert np.isnan(np.delete(got, gated)).all()

    def test_rejects_a_temperature_vector_of_the_wrong_length(self):
        grid = _GRIDS[2]
        model = _MODELS[(2, True)]
        n_cores = len(grid.stack.core_names())
        with pytest.raises(ModelError, match="temperature"):
            model.unit_power_vector(
                grid.unit_keys, [0.5] * n_cores, [False] * n_cores, 0.5,
                np.full(grid.n_units - 1, 60.0),
            )


class TestUnitReadout:
    @staticmethod
    def _sum_operator(grid: ThermalGrid) -> sp.csr_matrix:
        """``M_sum``: row ``u`` is 1.0 over unit ``u``'s cells."""
        cells = [grid.unit_cells(d, name) for d, name in grid.unit_keys]
        indptr = np.concatenate(([0], np.cumsum([c.size for c in cells])))
        flat = np.concatenate(cells)
        return sp.csr_matrix(
            (np.ones(flat.size), flat, indptr), shape=(grid.n_units, grid.n_nodes)
        )

    @kernel_settings
    @given(
        n_layers=st.sampled_from([2, 4]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        scale=st.floats(min_value=1.0e-3, max_value=1.0e3),
        nan_at=st.one_of(st.none(), st.integers(min_value=0)),
    )
    def test_bitwise_equal_to_sum_operator(self, n_layers, seed, scale, nan_at):
        grid = _GRIDS[n_layers]
        temperatures = 60.0 + scale * np.random.default_rng(seed).standard_normal(
            grid.n_nodes
        )
        if nan_at is not None:
            temperatures[nan_at % grid.n_nodes] = math.nan
        got = grid.unit_temperature_vector(temperatures)
        want = (self._sum_operator(grid) @ temperatures) / grid.unit_cell_counts
        assert _same_bits(got, want)
        # And the additions run left to right from 0.0, unit by unit.
        for u, (d, name) in enumerate(grid.unit_keys):
            total = 0.0
            for cell in grid.unit_cells(d, name).tolist():
                total += float(temperatures[cell])
            assert got[u] == total / grid.unit_cell_counts[u] or (
                math.isnan(got[u]) and math.isnan(total)
            )

    def test_unit_without_cells_raises(self):
        coarse = ThermalGrid(build_stack(2, CoolingKind.LIQUID), nx=3, ny=3)
        assert coarse._empty_units
        with pytest.raises(GeometryError, match="no grid cells"):
            coarse.unit_temperature_vector(np.full(coarse.n_nodes, 60.0))


# Summing a field with an infinity, or one that overflows, warns.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestFiniteCheck:
    @pytest.mark.parametrize(
        "bad",
        [[60.0, math.nan, 61.0], [60.0, math.inf], [math.inf, 60.0, -math.inf]],
        ids=["nan", "inf", "both-infinities"],
    )
    def test_raises_on_non_finite(self, bad):
        with pytest.raises(SolverError, match="non-finite"):
            _finite(np.array(bad), "transient step")

    def test_passes_a_finite_field_whose_sum_overflows(self):
        temps = np.array([1.0e308, 1.0e308, 60.0])
        assert _finite(temps, "transient step") is temps


class TestForecasterWindowExtremes:
    @settings(max_examples=30, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=20.0, max_value=110.0), min_size=1, max_size=120
        )
    )
    def test_running_extremes_match_the_history(self, samples):
        forecaster = TemperatureForecaster(window=40, min_history=30)
        for value in samples:
            forecaster.observe(value)
            history = list(forecaster._history)
            assert forecaster._lows[0][1] == min(history)
            assert forecaster._highs[0][1] == max(history)
            forecast = forecaster.predict()
            if forecaster.model is not None:
                raw = forecaster.model.forecast_from(
                    forecaster._y, forecaster._e, forecaster.horizon_steps
                )
                lo, hi = min(history) - 20.0, max(history) + 20.0
                assert forecast == min(max(raw, lo), hi)
