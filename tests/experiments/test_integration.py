"""Cross-module integration: a reduced Figure 6/8-style sweep.

These are the repository's end-to-end checks: each assertion is one of
the paper's qualitative claims, evaluated on short runs of a reduced
workload set so the suite stays fast.
"""

import pytest

from repro.constants import CONTROL
from repro.experiments import common
from repro.metrics.energy import EnergyBreakdown, cooling_energy_savings
from repro.metrics.thermal_metrics import (
    hotspot_frequency,
    spatial_gradient_frequency,
)
from repro.sim.config import CoolingMode, PolicyKind

DURATION = 8.0


def _keyed(spec):
    """Spec results keyed by (policy, cooling, workload)."""
    return {
        (PolicyKind(p.config.policy), p.config.cooling, p.config.benchmark_name): r
        for p, r in common.run_spec(spec)
    }


@pytest.fixture(scope="module")
def runs():
    return _keyed(common.matrix_spec(workloads=("Web-high", "gzip"), duration=DURATION))


class TestPaperClaims:
    def test_max_flow_prevents_all_hotspots(self, runs):
        """'the coolant flowing at the maximum rate is able to prevent
        all the hot spots'."""
        for policy in (PolicyKind.LB, PolicyKind.MIGRATION, PolicyKind.TALB):
            for bench in ("Web-high", "gzip"):
                r = runs[(policy, CoolingMode.LIQUID_MAX, bench)]
                assert hotspot_frequency(r) == 0.0

    def test_air_cooling_shows_hotspots_on_hot_workload(self, runs):
        r = runs[(PolicyKind.LB, CoolingMode.AIR, "Web-high")]
        assert hotspot_frequency(r) > 5.0

    def test_variable_flow_maintains_target(self, runs):
        """'Our method guarantees operating below the target
        temperature' (sensor-level, 0.5 K tolerance for transients)."""
        for bench in ("Web-high", "gzip"):
            r = runs[(PolicyKind.TALB, CoolingMode.LIQUID_VARIABLE, bench)]
            assert r.peak_temperature() <= CONTROL.target_temperature + 0.5

    def test_variable_flow_saves_cooling_energy(self, runs):
        """Savings exist for both, and the low-utilization workload
        saves much more (the 'up to 30%' regime)."""
        savings = {}
        for bench in ("Web-high", "gzip"):
            var = EnergyBreakdown.from_result(
                runs[(PolicyKind.TALB, CoolingMode.LIQUID_VARIABLE, bench)]
            )
            mx = EnergyBreakdown.from_result(
                runs[(PolicyKind.TALB, CoolingMode.LIQUID_MAX, bench)]
            )
            savings[bench] = cooling_energy_savings(var, mx)
        assert savings["gzip"] > 0.30
        assert savings["gzip"] > savings["Web-high"] >= 0.0

    def test_liquid_reduces_gradients_vs_air(self, runs):
        air = runs[(PolicyKind.LB, CoolingMode.AIR, "Web-high")]
        liquid = runs[(PolicyKind.LB, CoolingMode.LIQUID_MAX, "Web-high")]
        assert spatial_gradient_frequency(liquid) <= spatial_gradient_frequency(air)

    def test_throughput_not_hurt_by_variable_flow(self, runs):
        """'our technique is able to improve the energy savings without
        any effect on the performance'."""
        for bench in ("Web-high", "gzip"):
            var = runs[(PolicyKind.TALB, CoolingMode.LIQUID_VARIABLE, bench)]
            mx = runs[(PolicyKind.LB, CoolingMode.LIQUID_MAX, bench)]
            assert var.throughput() == pytest.approx(mx.throughput(), rel=0.05)

    def test_pump_energy_zero_for_air(self, runs):
        r = runs[(PolicyKind.LB, CoolingMode.AIR, "gzip")]
        assert r.pump_energy() == 0.0

    def test_variable_flow_rides_lower_settings_on_light_load(self, runs):
        r_gzip = runs[(PolicyKind.TALB, CoolingMode.LIQUID_VARIABLE, "gzip")]
        r_web = runs[(PolicyKind.TALB, CoolingMode.LIQUID_VARIABLE, "Web-high")]
        assert r_gzip.mean_flow_setting() < r_web.mean_flow_setting()


class TestDpmVariationStudy:
    """Reduced Figure 7: TALB suppresses DPM-induced variations."""

    @pytest.fixture(scope="class")
    def dpm_runs(self):
        spec = common.matrix_spec(
            combos=[(p, CoolingMode.LIQUID_MAX) for p in (PolicyKind.LB, PolicyKind.TALB)],
            workloads=("Database",),
            duration=DURATION,
            dpm=True,
        )
        return {policy: r for (policy, _, _), r in _keyed(spec).items()}

    def test_talb_reduces_spatial_gradients(self, dpm_runs):
        lb = spatial_gradient_frequency(dpm_runs[PolicyKind.LB])
        talb = spatial_gradient_frequency(dpm_runs[PolicyKind.TALB])
        assert talb <= lb
