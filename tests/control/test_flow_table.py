"""The flow-rate look-up table and its characterization (Figure 5)."""

import math

import numpy as np
import pytest

from repro.control.flow_table import CharacterizationResult, FlowRateTable
from repro.errors import ControlError

FLOWS = (1.0, 2.0, 3.0, 4.0, 5.0)


def toy_steady_tmax(setting: int, utilization: float) -> float:
    """An analytic monotone stand-in for the thermal model: hotter with
    load, cooler with higher settings."""
    return 65.0 + 30.0 * utilization - 4.0 * setting


def batched(steady_tmax):
    """A per-point evaluator in the batch form ``characterize`` takes."""
    return lambda setting, utils: np.array([steady_tmax(setting, float(u)) for u in utils])


@pytest.fixture
def table():
    return FlowRateTable.characterize(
        steady_tmax_batch=batched(toy_steady_tmax),
        n_settings=5,
        per_cavity_flows=FLOWS,
        utilizations=np.linspace(0.0, 1.0, 11),
        target=80.0,
    )


class TestCharacterize:
    def test_matrix_shape(self, table):
        assert table.char.tmax.shape == (5, 11)

    def test_monotone_validation_rejects_bad_matrix(self):
        bad = CharacterizationResult(
            utilizations=np.array([0.0, 1.0]),
            tmax=np.array([[70.0, 60.0], [65.0, 75.0]]),  # Falls with load.
            per_cavity_flows=(1.0, 2.0),
            target=80.0,
        )
        with pytest.raises(ControlError):
            FlowRateTable(bad)

    def test_rejects_inverted_setting_order(self):
        bad = CharacterizationResult(
            utilizations=np.array([0.0, 1.0]),
            tmax=np.array([[60.0, 70.0], [65.0, 75.0]]),  # Hotter at higher setting.
            per_cavity_flows=(1.0, 2.0),
            target=80.0,
        )
        with pytest.raises(ControlError):
            FlowRateTable(bad)

    def test_rejects_nan_tmax_naming_setting_and_utilization(self):
        # NaN compares False, so it slipped past the monotonicity checks
        # and every cap came out inf: the table silently chose setting 0.
        tmax = np.array([toy_steady_tmax(k, u) for k in range(3) for u in (0.0, 0.5, 1.0)])
        tmax = tmax.reshape(3, 3)
        tmax[1, 1] = np.nan
        with pytest.raises(ControlError, match=r"setting 1, utilization 0\.5"):
            CharacterizationResult(
                utilizations=np.array([0.0, 0.5, 1.0]),
                tmax=tmax,
                per_cavity_flows=(1.0, 2.0, 3.0),
                target=80.0,
            )

    def test_rejects_an_infinite_row(self):
        with pytest.raises(ControlError, match=r"setting 0, utilization 0\.0"):
            FlowRateTable.characterize(
                steady_tmax_batch=batched(
                    lambda k, u: math.inf if k == 0 else toy_steady_tmax(k, u)
                ),
                n_settings=3,
                per_cavity_flows=(1.0, 2.0, 3.0),
                target=80.0,
            )

    def test_rejects_non_finite_utilizations(self):
        with pytest.raises(ControlError, match="non-finite utilizations"):
            CharacterizationResult(
                utilizations=np.array([0.0, np.nan, 1.0]),
                tmax=np.full((2, 3), 70.0),
                per_cavity_flows=(1.0, 2.0),
                target=80.0,
            )

    def test_rejects_too_few_points(self):
        with pytest.raises(ControlError):
            FlowRateTable.characterize(
                steady_tmax_batch=batched(toy_steady_tmax),
                n_settings=2,
                per_cavity_flows=(1.0, 2.0),
                utilizations=(0.5,),
            )


class TestInversion:
    def test_utilization_round_trip(self, table):
        for setting in range(5):
            for u in (0.1, 0.5, 0.9):
                t = toy_steady_tmax(setting, u)
                assert table.utilization_from_temperature(t, setting) == pytest.approx(
                    u, abs=1e-9
                )

    def test_extrapolates_above_range(self, table):
        u = table.utilization_from_temperature(120.0, 0)
        assert u > 1.0

    def test_clamps_below_zero(self, table):
        assert table.utilization_from_temperature(0.0, 0) == 0.0

    def test_bad_setting_rejected(self, table):
        with pytest.raises(ControlError):
            table.utilization_from_temperature(70.0, 9)


class TestRequiredSetting:
    def test_caps_match_analytic_solution(self, table):
        # Setting k holds u iff 65 + 30u - 4k <= 80, i.e. u <= (15+4k)/30.
        for k in range(5):
            expected = (15.0 + 4.0 * k) / 30.0
            cap = table.utilization_cap(k)
            if expected >= 1.0:
                assert math.isinf(cap)
            else:
                assert cap == pytest.approx(expected, abs=1e-9)

    def test_required_setting_monotone_in_temperature(self, table):
        temps = np.linspace(60.0, 100.0, 50)
        settings = [table.required_setting(t, 0) for t in temps]
        assert settings == sorted(settings)

    def test_required_setting_saturates(self, table):
        assert table.required_setting(200.0, 0) == 4

    def test_consistent_across_observed_setting(self, table):
        """The same workload observed at different pump settings must
        map to the same required setting."""
        u = 0.7
        for observed in range(5):
            t_observed = toy_steady_tmax(observed, u)
            assert table.required_setting(t_observed, observed) == (
                table.required_setting_for_utilization(u)
            )

    def test_sufficient_setting_holds_target(self, table):
        for u in np.linspace(0.0, 1.0, 21):
            k = table.required_setting_for_utilization(float(u))
            if table.utilization_cap(k) >= u:  # Not saturated.
                assert toy_steady_tmax(k, float(u)) <= 80.0 + 1e-9


class TestBoundaries:
    def test_boundaries_ascend(self, table):
        bounds = table.boundaries(0)
        finite = [b for b in bounds if math.isfinite(b)]
        assert finite == sorted(finite)

    def test_boundary_semantics(self, table):
        """Just below boundary m the required setting is <= m; just
        above it is m+1 (the paper's LUT 'lines')."""
        bounds = table.boundaries(0)
        for m, b in enumerate(bounds):
            if not math.isfinite(b):
                continue
            assert table.required_setting(b - 0.01, 0) <= m
            assert table.required_setting(b + 0.01, 0) == m + 1
