"""Sensitivity sweeps — robustness of the documented assumptions."""

from repro.experiments import common, sweeps


def test_inlet_temperature_sweep(benchmark):
    rows = benchmark.pedantic(
        lambda: sweeps.inlet_temperature_sweep(),
        rounds=1,
        iterations=1,
    )
    print("\n" + common.format_rows(rows))
    # The operating band translates with the inlet; its width (the
    # flow rate's leverage) stays put, so the comparative results are
    # inlet-independent.
    widths = [r["band_width"] for r in rows]
    assert max(widths) - min(widths) < 2.0


def test_hysteresis_sweep(benchmark):
    rows = benchmark.pedantic(
        lambda: sweeps.hysteresis_sweep(duration=12.0),
        rounds=1,
        iterations=1,
    )
    print("\n" + common.format_rows(rows))
    by_h = {r["hysteresis_K"]: r for r in rows}
    # The paper's 2 degC value holds the target; removing the guard
    # can only increase switching.
    assert by_h[2.0]["peak_temperature"] <= 80.5
    assert by_h[0.0]["setting_switches"] >= by_h[4.0]["setting_switches"]


def test_idle_power_sweep(benchmark):
    rows = benchmark.pedantic(
        lambda: sweeps.idle_power_sweep(),
        rounds=1,
        iterations=1,
    )
    print("\n" + common.format_rows(rows))
    # The paper does not state idle-core power; 1 W is an assumption.
    # +/-0.5 W of it moves low-utilization T_max by a few kelvin only,
    # so the light-workload pump setting and the ranking hold.
    span = rows[-1]["tmax_low_util_min_flow"] - rows[0]["tmax_low_util_min_flow"]
    assert span < 8.0
