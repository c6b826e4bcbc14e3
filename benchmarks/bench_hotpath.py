"""Machine-readable hot-path timing baseline (PR 3).

Times the thermal substrate's hot path — unit<->cell operators,
network assembly, factorization, transient steps, and a warm full
control interval — and emits a JSON document, so future PRs have a
perf trajectory to compare against::

    python benchmarks/bench_hotpath.py --out hotpath-timings.json

CI uploads the JSON as a dedicated artifact per commit. The file is
also importable as a pytest module: ``test_hotpath_baseline`` runs the
same measurements (fewer repetitions) and sanity-checks the payload,
without asserting absolute timings (they depend on the runner).

Reference numbers from the PR 3 development machine (medians; the
pre-vectorization seed in parentheses):

* ``assembly_64x64``: ~0.03-0.05 s (seed ~0.14-0.23 s)
* ``control_interval_32x32``: ~0.002 s (seed ~0.023-0.043 s) — the
  repeated-run cost every sweep/batch run pays after the first; the
  system memo shares assembled networks and factorizations across
  ``Simulator`` instances of the same configuration.

PR 7 adds a ``cohort`` section: warm throughput of a 16-run
policy-only sweep at 64x64 through the serial per-run path vs cohort
execution (exact and block modes), in runs/sec-per-core, plus the LU
factorization counters that gate the shared-kernel property. The
committed ``BENCH_hotpath.json`` at the repo root is the trajectory
baseline; ``benchmarks/compare_bench.py`` diffs a fresh run against it.

PR 8 (schema v3) adds a ``cross_network`` section: a 16-point
``thermal_params`` sweep at 64x64 where every design point is a
*different* network, run cold through both solver tiers. Exact pays a
fresh LU per point; krylov factorizes once and preconditions every
later point off the nearest retained LU, so the section records
factorization counts, the preconditioner hit rate, the worst
temperature deviation vs exact, and runs/sec-per-core for both tiers.

PR 9 (schema v4) sources every factorization and hit-rate counter from
the :mod:`repro.telemetry` metrics registry (snapshot diffs instead of
module-global reads) and adds a ``timing_breakdown`` section: the
``span.*`` timer histograms of a traced cold cohort sweep, reporting
where the wall clock goes (assembly, factorization, steady solves,
transient steps) as absolute totals and shares.

PR 10 (schema v5) adds a ``facility`` section: the warm 32x32 run
repeated with the closed-loop facility co-simulation enabled, so the
trajectory tracks the per-interval coupling overhead (the facility
advances through a pure RHS update — no refactorization — so the
overhead should stay in the low single-digit percent), plus the
closed-loop convergence residual as the algorithmic sanity value.

Schema v6 adds an ``inlet_sweep`` section: a cold 4-inlet TALB ``Var``
sweep at 16x16 next to a cold single-inlet run of the same config. The
inlet enters only the boundary vector, so the content-addressed LU
store must make the sweep factorize exactly as often as the single
inlet; the traced ``factorize`` digests count the distinct matrices, so
the section also records duplicate LUs (gated at zero).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import units  # noqa: E402
from repro.geometry.stack import build_stack  # noqa: E402
from repro.runner import BatchRunner, CohortRunner  # noqa: E402
from repro.sim.cache import (  # noqa: E402
    CharacterizationCache,
    clear_system_memo,
)
from repro.sim.config import CoolingMode, PolicyKind, SimulationConfig  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.thermal.grid import ThermalGrid  # noqa: E402
from repro.thermal.rc_network import ThermalParams, build_network  # noqa: E402
from repro.telemetry import metrics as telemetry_metrics  # noqa: E402
from repro.telemetry import trace as telemetry_trace  # noqa: E402
from repro.thermal.solver import (  # noqa: E402
    SteadyStateSolver,
    TransientSolver,
    clear_neighbor_cache,
)

FLOW = units.ml_per_minute(400.0)

SCHEMA_VERSION = 6

INLETS = (45.0, 55.0, 65.0, 75.0)


def _median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _counter_delta(before: dict, after: dict, name: str) -> int:
    """A telemetry counter's movement between two registry snapshots."""
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def _cohort_configs() -> list:
    """The cohort benchmark sweep: 16 runs (4 policies x 4 seeds) over
    one 64x64 thermal network — policy-only, so every run shares the
    same assembled/factorized kernel."""
    return [
        SimulationConfig(policy=policy, seed=seed, nx=64, ny=64, duration=0.2)
        for seed in range(4)
        for policy in ("TALB", "LB", "Mig", "RR")
    ]


def collect_cohort_metrics(repeats: int = 5) -> dict:
    """Cohort-vs-serial throughput on the 16-run policy sweep (PR 7).

    Throughput is runs/sec-per-core (everything here executes on one
    core; divide by ``max_workers`` when extrapolating to a pool). The
    ``warm_refactorizations`` counter is the algorithmic gate: a warm
    cohort campaign must perform zero LU factorizations — at most one
    factorization ever happens per (network, dt), however many runs
    step through it.
    """
    cache = CharacterizationCache()
    before = telemetry_metrics.snapshot()
    BatchRunner(_cohort_configs(), cohort="off", cache=cache).run()  # warm
    first_campaign_factorizations = _counter_delta(
        before, telemetry_metrics.snapshot(), "solver.factorizations"
    )

    def campaign_time(make) -> float:
        return _median_time(lambda: make().run(), repeats)

    serial_s = campaign_time(
        lambda: BatchRunner(_cohort_configs(), cohort="off", cache=cache)
    )
    exact_s = campaign_time(lambda: CohortRunner(_cohort_configs(), cache=cache))
    block_s = campaign_time(
        lambda: CohortRunner(_cohort_configs(), block=True, cache=cache)
    )

    before = telemetry_metrics.snapshot()
    CohortRunner(_cohort_configs(), cache=cache).run()
    warm_refactorizations = _counter_delta(
        before, telemetry_metrics.snapshot(), "solver.factorizations"
    )

    n_runs = len(_cohort_configs())
    return {
        "sweep": "16 runs (4 policies x 4 seeds), 64x64, 0.2 s simulated",
        "n_runs": n_runs,
        "serial_s": serial_s,
        "cohort_exact_s": exact_s,
        "cohort_block_s": block_s,
        "serial_runs_per_sec_per_core": n_runs / serial_s,
        "cohort_exact_runs_per_sec_per_core": n_runs / exact_s,
        "cohort_block_runs_per_sec_per_core": n_runs / block_s,
        "cohort_exact_speedup": serial_s / exact_s,
        "cohort_block_speedup": serial_s / block_s,
        "first_campaign_factorizations": first_campaign_factorizations,
        "warm_refactorizations": warm_refactorizations,
    }


def _cross_network_configs(solver: str, n_points: int = 16) -> list:
    """The cross-network benchmark sweep: ``n_points`` design points
    over a ``thermal_params`` axis at 64x64, so every run assembles a
    *different* network. RR + Max cooling keeps characterization (and
    controller quantization) out of the measurement."""
    return [
        SimulationConfig(
            policy="RR",
            cooling=CoolingMode.LIQUID_MAX,
            nx=64,
            ny=64,
            duration=0.2,
            solver=solver,
            thermal_params=ThermalParams(resistance_scale=4.0 + 0.06 * i),
        )
        for i in range(n_points)
    ]


def collect_cross_network_metrics(repeats: int = 3) -> dict:
    """Cross-network sweep throughput, exact vs krylov (PR 8).

    Every repetition runs *cold* (system memo and neighbor-LU cache
    cleared), so each sample pays the full per-point assembly and
    factorization/preconditioning cost — that is the cost a fresh
    design-space sweep pays. The algorithmic gate is the factorization
    count: exact pays steady+transient LUs per point, krylov must pay
    strictly fewer LUs than it has design points.
    """
    n_points = len(_cross_network_configs("exact"))

    def campaign(solver: str):
        clear_system_memo()
        clear_neighbor_cache()
        before = telemetry_metrics.snapshot()
        batch = BatchRunner(
            _cross_network_configs(solver),
            cohort="auto",
            cache=CharacterizationCache(),
        )
        start = time.perf_counter()
        runs = batch.run().runs
        elapsed = time.perf_counter() - start
        after = telemetry_metrics.snapshot()
        stats = {
            key: _counter_delta(before, after, "solver.krylov." + key)
            for key in ("preconditioner_hits", "preconditioner_misses", "fallbacks")
        }
        factorizations = _counter_delta(before, after, "solver.factorizations")
        return elapsed, factorizations, stats, runs

    exact_samples, krylov_samples = [], []
    max_abs_dT = 0.0
    for rep in range(max(1, repeats)):
        exact_s, exact_f, _, exact_runs = campaign("exact")
        krylov_s, krylov_f, k_stats, krylov_runs = campaign("krylov")
        exact_samples.append(exact_s)
        krylov_samples.append(krylov_s)
        if rep == 0:
            for e, k in zip(exact_runs, krylov_runs):
                max_abs_dT = max(
                    max_abs_dT,
                    float(np.abs(e.result.tmax - k.result.tmax).max()),
                )
    clear_system_memo()
    clear_neighbor_cache()

    exact_s = statistics.median(exact_samples)
    krylov_s = statistics.median(krylov_samples)
    hits = k_stats["preconditioner_hits"]
    misses = k_stats["preconditioner_misses"]
    return {
        "sweep": (
            f"{n_points} design points over thermal_params"
            " (resistance_scale), 64x64, 0.2 s simulated, cold"
        ),
        "n_points": n_points,
        "exact_s": exact_s,
        "krylov_s": krylov_s,
        "exact_runs_per_sec_per_core": n_points / exact_s,
        "krylov_runs_per_sec_per_core": n_points / krylov_s,
        "krylov_speedup": exact_s / krylov_s,
        "exact_factorizations": exact_f,
        "krylov_factorizations": krylov_f,
        "preconditioner_hit_rate": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "krylov_fallbacks": k_stats["fallbacks"],
        "max_abs_dT_vs_exact_K": max_abs_dT,
    }


def collect_timing_breakdown() -> dict:
    """Span-derived timing shares of one cold cohort sweep (PR 9 / v4).

    Runs the 16-run cohort campaign cold with span tracing enabled and
    reports every ``span.*`` timer's count, total, and share of the
    campaign wall clock — the same breakdown ``repro telemetry
    summary`` prints for a ``--trace`` run, committed here so the
    trajectory tracks *where* the time goes, not just how much.
    """
    telemetry_trace.enable()
    clear_system_memo()
    before = telemetry_metrics.snapshot()
    start = time.perf_counter()
    BatchRunner(
        _cohort_configs(), cohort="auto", cache=CharacterizationCache()
    ).run()
    wall = time.perf_counter() - start
    delta = telemetry_metrics.snapshot_diff(before, telemetry_metrics.snapshot())
    telemetry_trace.disable()
    telemetry_trace.clear()
    spans = {}
    for key, stats in delta["timers"].items():
        if not key.startswith("span."):
            continue
        spans[key[len("span."):]] = {
            "count": stats["count"],
            "total_s": stats["total_s"],
            "share_of_wall": stats["total_s"] / wall if wall > 0 else 0.0,
        }
    return {
        "sweep": "16 runs (4 policies x 4 seeds), 64x64, 0.2 s simulated, cold",
        "wall_s": wall,
        "spans": spans,
    }


def _inlet_configs(inlets) -> list:
    """A TALB ``Var`` sweep over inlet temperatures at 16x16: the
    points share every matrix and differ only in the boundary vector."""
    return [
        SimulationConfig(
            policy="TALB",
            cooling=CoolingMode.LIQUID_VARIABLE,
            nx=16,
            ny=16,
            duration=0.5,
            thermal_params=ThermalParams(inlet_temperature=inlet),
        )
        for inlet in inlets
    ]


def collect_inlet_sweep_metrics() -> dict:
    """LU counts of a cold inlet-temperature sweep (schema v6).

    Runs the 4-inlet sweep and its first inlet alone, each cold (system
    memo, LU store, and neighbor pool cleared) and traced. The gate is
    algorithmic: the sweep must factorize exactly as often as the single
    inlet, and no two ``factorize`` spans may carry the same matrix
    digest.
    """

    def campaign(inlets) -> tuple[int, int]:
        clear_system_memo()
        clear_neighbor_cache()
        telemetry_trace.enable()
        telemetry_trace.clear()
        before = telemetry_metrics.snapshot()
        BatchRunner(_inlet_configs(inlets), cache=CharacterizationCache()).run()
        factorizations = _counter_delta(
            before, telemetry_metrics.snapshot(), "solver.factorizations"
        )
        digests = {
            event["attrs"]["digest"]
            for event in telemetry_trace.events()
            if event["name"] == "factorize"
        }
        telemetry_trace.disable()
        telemetry_trace.clear()
        return factorizations, len(digests)

    single, _ = campaign(INLETS[:1])
    swept, distinct = campaign(INLETS)
    return {
        "sweep": "TALB Var, inlet 45/55/65/75 degC, 16x16, 0.5 s simulated, cold",
        "n_inlets": len(INLETS),
        "single_inlet_factorizations": single,
        "factorizations": swept,
        "distinct_matrices": distinct,
        "duplicate_factorizations": swept - distinct,
    }


def collect_facility_metrics(repeats: int = 5) -> dict:
    """Facility co-simulation overhead and convergence (PR 10 / v5).

    Times the warm 1-simulated-second 32x32 run with and without the
    closed-loop facility. The coupling is a per-interval RHS update
    plus the plant energy balance — no extra factorizations — so the
    overhead is the honest price of closing the loop. The convergence
    residual (final inlet vs the supply setpoint after a 5 s pull-down
    with a small tank) is the algorithmic sanity value: it is a
    property of the control law, not the machine.
    """
    base_kwargs = dict(
        benchmark_name="gzip",
        policy=PolicyKind.TALB,
        cooling=CoolingMode.LIQUID_VARIABLE,
        duration=1.0,
        nx=32,
        ny=32,
    )
    fixed_config = SimulationConfig(**base_kwargs)
    loop_config = SimulationConfig(**base_kwargs, facility="closed-loop")
    cache = CharacterizationCache()
    Simulator(fixed_config, cache=cache).run()  # warm
    Simulator(loop_config, cache=cache).run()
    n = max(3, repeats // 2)
    fixed_s = _median_time(lambda: Simulator(fixed_config, cache=cache).run(), n)
    loop_s = _median_time(lambda: Simulator(loop_config, cache=cache).run(), n)

    setpoint = 55.0
    pulldown = SimulationConfig(
        **{**base_kwargs, "duration": 5.0},
        facility="closed-loop",
        facility_params={"supply_setpoint_c": setpoint, "loop_volume_l": 0.1},
    )
    result = Simulator(pulldown, cache=cache).run()
    final_inlet = float(result.facility_inlet[-1])

    return {
        "sweep": "warm 1 s simulated at 32x32, fixed inlet vs closed loop",
        "fixed_inlet_s": fixed_s,
        "closed_loop_s": loop_s,
        "coupling_overhead_pct": 100.0 * (loop_s - fixed_s) / fixed_s,
        "setpoint_c": setpoint,
        "converged_inlet_c": final_inlet,
        "inlet_error_K": abs(final_inlet - setpoint),
        "pue": result.pue(),
    }


def collect_timings(repeats: int = 5, include_107: bool = True) -> dict:
    """Run the hot-path measurements and return the JSON payload."""
    results: dict[str, float] = {}

    sizes = [16, 32, 64] + ([107] if include_107 else [])
    grids = {}
    for n in sizes:
        results[f"grid_construction_{n}x{n}"] = _median_time(
            lambda n=n: ThermalGrid(build_stack(2), nx=n, ny=n), max(3, repeats // 2)
        )
        grids[n] = ThermalGrid(build_stack(2), nx=n, ny=n)

    for n in sizes:
        results[f"assembly_{n}x{n}"] = _median_time(
            lambda n=n: build_network(grids[n], ThermalParams(), cavity_flows=[FLOW]),
            repeats if n < 107 else max(2, repeats // 2),
        )

    # Per-interval operators at 64x64.
    grid = grids[64]
    network = build_network(grid, ThermalParams(), cavity_flows=[FLOW])
    temps = np.full(grid.n_nodes, 65.0)
    unit_powers = np.full(grid.n_units, 2.0)
    results["power_scatter_64x64"] = _median_time(
        lambda: grid.power_vector_from_array(unit_powers), repeats * 20
    )
    results["unit_gather_64x64"] = _median_time(
        lambda: grid.unit_temperature_vector(temps), repeats * 20
    )
    results["max_die_temperature_64x64"] = _median_time(
        lambda: grid.max_die_temperature(temps), repeats * 20
    )

    results["steady_factorization_32x32"] = _median_time(
        lambda: SteadyStateSolver(
            build_network(grids[32], ThermalParams(), cavity_flows=[FLOW])
        ),
        max(3, repeats // 2),
    )

    for n in (32, 64):
        net_n = build_network(grids[n], ThermalParams(), cavity_flows=[FLOW])
        solver = TransientSolver(net_n, dt=0.1)
        power = grids[n].power_vector({(0, f"core{i}"): 3.0 for i in range(8)})
        state = np.full(net_n.n_nodes, 60.0)
        results[f"transient_step_{n}x{n}"] = _median_time(
            lambda solver=solver, state=state, power=power: solver.step(state, power),
            repeats * 4,
        )

    # Full control interval at 32x32: fresh Simulator.run of 1 simulated
    # second (10 intervals) with warm characterizations — includes the
    # per-run grid/assembly/factorization cost every sweep run pays.
    # gzip crosses one pump boundary, so two settings get assembled.
    config = SimulationConfig(
        benchmark_name="gzip",
        policy=PolicyKind.TALB,
        cooling=CoolingMode.LIQUID_VARIABLE,
        duration=1.0,
        nx=32,
        ny=32,
    )
    cache = CharacterizationCache()
    Simulator(config, cache=cache).run()  # warm
    run_1s = _median_time(
        lambda: Simulator(config, cache=cache).run(), max(3, repeats // 2)
    )
    results["simulated_second_32x32"] = run_1s
    results["control_interval_32x32"] = run_1s / 10.0

    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "hotpath",
        "units": "seconds (median wall clock)",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
        "results": results,
        "cohort": collect_cohort_metrics(repeats=repeats),
        "cross_network": collect_cross_network_metrics(
            repeats=max(1, repeats // 2)
        ),
        "timing_breakdown": collect_timing_breakdown(),
        "facility": collect_facility_metrics(repeats=repeats),
        "inlet_sweep": collect_inlet_sweep_metrics(),
    }


def test_hotpath_baseline(tmp_path):
    """Pytest entry: payload is well-formed; no absolute-time gates."""
    payload = collect_timings(repeats=2, include_107=False)
    out = tmp_path / "hotpath-timings.json"
    out.write_text(json.dumps(payload))
    loaded = json.loads(out.read_text())
    assert loaded["schema_version"] == SCHEMA_VERSION
    assert loaded["results"]["assembly_64x64"] > 0.0
    assert loaded["results"]["control_interval_32x32"] > 0.0
    assert set(loaded["results"]) >= {
        "assembly_16x16",
        "assembly_32x32",
        "assembly_64x64",
        "transient_step_32x32",
        "transient_step_64x64",
        "power_scatter_64x64",
        "unit_gather_64x64",
        "simulated_second_32x32",
        "control_interval_32x32",
    }
    cohort = loaded["cohort"]
    assert cohort["n_runs"] == 16
    assert cohort["cohort_exact_speedup"] > 0.0
    assert cohort["cohort_block_speedup"] > 0.0
    # The algorithmic gate: warm cohorts never refactorize.
    assert cohort["warm_refactorizations"] == 0
    cross = loaded["cross_network"]
    assert cross["n_points"] == 16
    # The cross-network gate: krylov factorizes strictly fewer times
    # than it has design points, while exact pays steady+transient LUs
    # for every one of them.
    assert cross["exact_factorizations"] == 2 * cross["n_points"]
    assert cross["krylov_factorizations"] < cross["n_points"]
    assert cross["preconditioner_hit_rate"] > 0.0
    assert cross["max_abs_dT_vs_exact_K"] < 1.0e-6
    breakdown = loaded["timing_breakdown"]
    assert breakdown["wall_s"] > 0.0
    # The traced cold campaign must surface the core hot-path spans.
    assert {"factorize", "steady", "step"} <= set(breakdown["spans"])
    for stats in breakdown["spans"].values():
        assert stats["count"] > 0
        assert 0.0 <= stats["share_of_wall"]
    facility = loaded["facility"]
    assert facility["fixed_inlet_s"] > 0.0
    assert facility["closed_loop_s"] > 0.0
    # The convergence residual is algorithmic, not machine-dependent:
    # the 5 s pull-down must land the inlet on the setpoint.
    assert facility["inlet_error_K"] < 0.5
    assert facility["pue"] > 1.0
    inlet = loaded["inlet_sweep"]
    # The LU-store gate: inlets share every matrix, so the sweep
    # factorizes exactly as often as one inlet, with no duplicate LU.
    assert inlet["factorizations"] == inlet["single_inlet_factorizations"]
    assert inlet["duplicate_factorizations"] == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("hotpath-timings.json"),
        help="output JSON path (default: ./hotpath-timings.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="samples per measurement (median)"
    )
    parser.add_argument(
        "--skip-107",
        action="store_true",
        help="skip the paper-resolution (107x107) cases",
    )
    args = parser.parse_args(argv)
    payload = collect_timings(repeats=args.repeats, include_107=not args.skip_107)
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for name, seconds in sorted(payload["results"].items()):
        print(f"{name:32s} {seconds * 1e3:10.3f} ms")
    cohort = payload["cohort"]
    print(f"\ncohort sweep: {cohort['sweep']}")
    print(
        f"  serial {cohort['serial_runs_per_sec_per_core']:.1f} runs/s"
        f"  exact {cohort['cohort_exact_runs_per_sec_per_core']:.1f}"
        f" ({cohort['cohort_exact_speedup']:.2f}x)"
        f"  block {cohort['cohort_block_runs_per_sec_per_core']:.1f}"
        f" ({cohort['cohort_block_speedup']:.2f}x)"
    )
    print(
        f"  factorizations: first campaign"
        f" {cohort['first_campaign_factorizations']},"
        f" warm {cohort['warm_refactorizations']}"
    )
    cross = payload["cross_network"]
    print(f"\ncross-network sweep: {cross['sweep']}")
    print(
        f"  exact {cross['exact_runs_per_sec_per_core']:.1f} runs/s"
        f"  krylov {cross['krylov_runs_per_sec_per_core']:.1f}"
        f" ({cross['krylov_speedup']:.2f}x)"
    )
    print(
        f"  factorizations: exact {cross['exact_factorizations']},"
        f" krylov {cross['krylov_factorizations']}"
        f" (hit rate {cross['preconditioner_hit_rate']:.0%},"
        f" {cross['krylov_fallbacks']} fallbacks,"
        f" max |dT| {cross['max_abs_dT_vs_exact_K']:.2e} K)"
    )
    breakdown = payload["timing_breakdown"]
    print(f"\ntiming breakdown: {breakdown['sweep']} ({breakdown['wall_s']:.2f}s)")
    for name, stats in sorted(
        breakdown["spans"].items(),
        key=lambda item: item[1]["total_s"],
        reverse=True,
    ):
        print(
            f"  {name:16s} count {stats['count']:>6}"
            f"  total {stats['total_s'] * 1e3:9.1f} ms"
            f"  {stats['share_of_wall']:6.1%} of wall"
        )
    facility = payload["facility"]
    print(f"\nfacility co-simulation: {facility['sweep']}")
    print(
        f"  fixed inlet {facility['fixed_inlet_s'] * 1e3:.1f} ms"
        f"  closed loop {facility['closed_loop_s'] * 1e3:.1f} ms"
        f"  (+{facility['coupling_overhead_pct']:.1f}%)"
    )
    print(
        f"  pull-down convergence: inlet {facility['converged_inlet_c']:.2f} degC"
        f" vs setpoint {facility['setpoint_c']:.1f}"
        f" (|err| {facility['inlet_error_K']:.3f} K, PUE {facility['pue']:.3f})"
    )
    inlet = payload["inlet_sweep"]
    print(f"\ninlet sweep: {inlet['sweep']}")
    print(
        f"  factorizations: {inlet['n_inlets']} inlets"
        f" {inlet['factorizations']}, one inlet"
        f" {inlet['single_inlet_factorizations']}"
        f" ({inlet['distinct_matrices']} distinct matrices,"
        f" {inlet['duplicate_factorizations']} duplicates)"
    )
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
