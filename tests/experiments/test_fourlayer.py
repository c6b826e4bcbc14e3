"""The 4-layer system sweep."""

import pytest

from repro.experiments import run_figures


@pytest.fixture(scope="module")
def rows():
    return run_figures(
        ["fourlayer"], duration=8.0, workloads=("Database", "gzip")
    )["fourlayer"]


class TestFourLayer:
    def test_three_policy_rows(self, rows):
        assert [r["policy"] for r in rows] == ["LB (Max)", "TALB (Max)", "TALB (Var)"]

    def test_no_hotspots_under_liquid(self, rows):
        for row in rows:
            assert row["hotspots_avg_pct"] == 0.0

    def test_variable_flow_saves_pump_energy(self, rows):
        by_policy = {r["policy"]: r for r in rows}
        assert (
            by_policy["TALB (Var)"]["energy_pump"]
            < by_policy["TALB (Max)"]["energy_pump"]
        )

    def test_controller_holds_target_on_light_load(self, rows):
        by_policy = {r["policy"]: r for r in rows}
        assert by_policy["TALB (Var)"]["target_held"]

    def test_talb_no_hotter_than_lb(self, rows):
        """Inter-tier heterogeneity: the weighted balancer exploits the
        better-cooled tier and lowers the peak."""
        by_policy = {r["policy"]: r for r in rows}
        assert (
            by_policy["TALB (Max)"]["peak_temperature"]
            <= by_policy["LB (Max)"]["peak_temperature"] + 0.1
        )
