"""Figures 6-8, the headline savings and the 4-layer system.

One case per :data:`repro.experiments.FIGURES` entry: it times that
figure's own sweep, prints the regenerated rows and asserts the
paper's qualitative claims for it. A figure without a check function
below fails collection.
"""

import pytest
from conftest import SWEEP_DURATION

from repro.constants import CONTROL
from repro.experiments import FIGURES, common, run_figures


def _by(rows, key):
    return {r[key]: r for r in rows}


def check_fig6(rows):
    """Hot spots and energy for all seven policy/cooling combos."""
    by_policy = _by(rows, "policy")

    # Paper: liquid cooling at any flow eliminates the >85 degC hot
    # spots the air-cooled system shows.
    assert by_policy["LB (Air)"]["hotspots_avg_pct"] > 2.0
    for label in ("LB (Max)", "Mig (Max)", "TALB (Max)", "TALB (Var)"):
        assert by_policy[label]["hotspots_avg_pct"] == 0.0

    # Paper: variable flow cuts pump energy versus worst-case flow
    # while chip energy stays essentially flat.
    var = by_policy["TALB (Var)"]
    mx = by_policy["TALB (Max)"]
    assert var["energy_pump"] < 0.85 * mx["energy_pump"]
    assert abs(var["energy_chip"] - mx["energy_chip"]) < 0.05

    # Energy is normalized to LB (Air) chip energy.
    assert abs(by_policy["LB (Air)"]["energy_chip"] - 1.0) < 1e-9
    assert by_policy["LB (Air)"]["energy_pump"] == 0.0


def check_fig7(rows):
    """Spatial gradients (>15 degC) and thermal cycles (>20 degC) with
    DPM on."""
    by_policy = _by(rows, "policy")

    # Paper: "Our weighted load balancing technique (TALB) is able to
    # minimize both temporal and spatial thermal variations much more
    # effectively than other policies."
    assert (
        by_policy["TALB (Air)"]["spatial_gradients_pct"]
        < by_policy["LB (Air)"]["spatial_gradients_pct"]
    )
    assert (
        by_policy["TALB (Max)"]["spatial_gradients_pct"]
        < by_policy["LB (Max)"]["spatial_gradients_pct"]
    )
    assert (
        by_policy["TALB (Air)"]["thermal_cycles_pct"]
        <= by_policy["LB (Air)"]["thermal_cycles_pct"]
    )
    # Liquid cooling itself also suppresses variations vs air.
    assert (
        by_policy["LB (Max)"]["spatial_gradients_pct"]
        < by_policy["LB (Air)"]["spatial_gradients_pct"]
    )


def check_fig8(rows):
    """Performance and energy across cooling configurations."""
    by_policy = _by(rows, "policy")

    # Paper: migration has a performance/energy overhead under air
    # cooling (temperature-triggered migrations burn extra work). At
    # these run lengths the throughput dip is within sampling noise, so
    # the robust observable is the chip-energy inflation; all policies
    # must stay within 2 % of LB's throughput.
    assert by_policy["Mig (Air)"]["energy_chip"] > by_policy["LB (Air)"]["energy_chip"]
    for label in ("Mig (Air)", "TALB (Air)", "LB (Max)", "TALB (Var)"):
        assert abs(by_policy[label]["performance"] - 1.0) < 0.02

    # Paper: TALB (Var) saves energy "without any effect on the
    # performance" relative to worst-case flow.
    assert (
        by_policy["TALB (Var)"]["energy_total"]
        < by_policy["LB (Max)"]["energy_total"]
    )
    assert by_policy["TALB (Var)"]["performance"] >= 0.99


def check_headline(rows):
    """The headline claim: "reducing the cooling energy by up to 30 %,
    and the overall energy by up to 12 % in comparison to using the
    highest coolant flow rate", while "the temperature is maintained
    below the target"."""
    by_workload = _by(rows, "workload")

    # The 80 degC target holds for every workload (sensor level).
    for row in rows:
        assert row["peak_temperature"] <= CONTROL.target_temperature + 0.5

    # Savings are largest for the low-utilization workloads (the
    # paper's gzip/MPlayer observation) and exceed 30 % there.
    for light in ("gzip", "MPlayer"):
        assert by_workload[light]["cooling_savings_pct"] > 30.0
    assert (
        by_workload["gzip"]["cooling_savings_pct"]
        > by_workload["Web-high"]["cooling_savings_pct"]
    )
    # High-utilization workloads need near-worst-case flow: little to
    # save, confirming the controller is load-following, not a fixed
    # down-clock.
    assert by_workload["Web-high"]["cooling_savings_pct"] < 10.0
    assert by_workload["Web-high"]["mean_setting"] > 3.5


def check_fourlayer(rows):
    """The liquid-cooling policy sweep on the 4-layer stack (5
    cavities, 625 ml/min per cavity at maximum) over the light Table
    II workloads."""
    by_policy = _by(rows, "policy")

    # Max flow keeps the 16-core stack free of >85 degC hot spots on
    # light workloads, and the controller holds the 80 degC target.
    assert by_policy["LB (Max)"]["hotspots_avg_pct"] == 0.0
    assert by_policy["TALB (Var)"]["target_held"]
    # On the 4-layer stack the two core tiers cool differently, so the
    # paper's weighted balancer lowers the peak temperature relative to
    # thread-count balancing — the inter-layer heterogeneity TALB was
    # designed for ("cores located at different layers ... may
    # significantly vary in their rates for heating and cooling").
    assert (
        by_policy["TALB (Max)"]["peak_temperature"]
        <= by_policy["LB (Max)"]["peak_temperature"]
    )
    # Variable flow still saves pump energy with only 625 ml/min of
    # per-cavity headroom.
    assert (
        by_policy["TALB (Var)"]["energy_pump"]
        < by_policy["TALB (Max)"]["energy_pump"]
    )


CHECKS = {
    "fig6": check_fig6,
    "fig7": check_fig7,
    "fig8": check_fig8,
    "headline": check_headline,
    "fourlayer": check_fourlayer,
}
assert set(CHECKS) == set(FIGURES), (
    f"figures without paper checks: {sorted(set(FIGURES) - set(CHECKS))}; "
    f"checks for no figure: {sorted(set(CHECKS) - set(FIGURES))}"
)


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure(benchmark, name):
    rows = benchmark.pedantic(
        lambda: run_figures([name], duration=SWEEP_DURATION)[name],
        rounds=1,
        iterations=1,
    )
    print("\n" + common.format_rows(rows))
    CHECKS[name](rows)
