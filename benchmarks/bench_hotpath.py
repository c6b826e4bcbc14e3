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

Schema v2 adds a section timing a warm 16-run policy-only sweep at
64x64 in runs/sec-per-core, plus the LU factorization counters that
gate the shared-kernel property (``warm_sweep`` since schema v8). The committed
``BENCH_hotpath.json`` at the repo root is the trajectory baseline;
``benchmarks/compare_bench.py`` diffs a fresh run against it.

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
``span.*`` timer histograms of a traced cold policy sweep, reporting
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

Schema v7 adds ``control_interval_arma_32x32``: the warm 32x32 control
interval again, but over 15 simulated seconds, so the forecaster fills
its 40-sample history, fits ARMA, and slides its 120-sample window
(``control_interval_32x32`` simulates 1 s and never fits). It is an
informational timing: ``compare_bench.py`` prints it but never warns.

Schema v8 replaces the ``cohort`` section (serial vs exact vs block
cohort execution, all three gone in favor of one execution path with a
memoized steady initial field) with ``warm_sweep``: one warm timing of
the same 16-run 64x64 policy sweep, plus ``warm_refactorizations``,
which must stay zero.

Schema v9 adds ``lu_nnz``: the fill (SuperLU's ``nnz``, supernodal
padding included) of the 100 ms liquid time-step LU at 32x32 and 64x64,
plus 107x107 unless ``--skip-107``. ``factorize`` stores that matrix in
symmetric mode (it is strictly row-diagonally dominant);
``pivoted_transient`` is the fill SuperLU's default COLAMD + partial
pivoting gives the same matrix, for the before/after. Informational:
``compare_bench.py`` prints it and never warns.

Schema v10 adds ``characterization_32x32``: a cold flow table plus burst
floor (``CharacterizationCache.table`` then ``.floor``) on a freshly
built 32x32 variable-flow system whose steady LUs are already in the
LU store, so it times the characterization's own solves and leakage
fixed points, not factorization.

Schema v11 adds ``krylov_iterations`` and ``krylov_gmres_solves`` to
``cross_network``: the krylov campaign's GMRES work, which the
right-preconditioned kernel pays one neighbor-LU solve per iteration
for. Informational until schema v17.

Schema v12 adds the unit-response counts to ``inlet_sweep``:
``responses`` (``R = U G^-1 S`` blocks solved, one per distinct steady
matrix) and ``bases`` (boundary columns, one per system and setting),
each next to its single-inlet count. ``R`` hangs on the shared steady
LU, so the sweep must solve exactly as many ``R`` blocks as one inlet
(gated like the duplicate LUs).

Schema v13 adds the assembly counts to ``inlet_sweep``: ``assemblies``
(``thermal.assembly{kind=build}``, fresh ``G``/``C`` assemblies) next
to ``single_inlet_assemblies``. The inlet enters only the boundary
vector, so ``build_network`` shares one operator across the inlets and
the sweep must assemble exactly as often as one inlet (gated). The
``facility`` coupling overhead is now the median ratio of interleaved
(fixed, closed-loop) run pairs instead of the difference of two small
medians, which swung by several points between runs of the same code.

Schema v14 adds per-interval kernel timings at 32x32, next to the 64x64
``power_scatter``/``unit_gather`` entries: ``unit_power_32x32`` (one
``PowerModel.unit_power_vector`` call with leakage and two sleeping
cores), ``unit_gather_32x32`` (``unit_temperature_vector``) and
``forecast_32x32`` (one forecaster ``observe`` + ``predict``, averaged
over the T_max series of the 15 s ARMA run). ``grid_construction_*``,
``steady_factorization_32x32`` and ``transient_step_*`` are now medians
of round-robin samples (each a short burst of calls), so a slow spell of
the machine no longer lands on one of them alone.

Schema v15 records a speed probe in ``environment``: the time of a
fixed pure-Python loop, timed after a sample (or round of samples) of
the timing helpers at most every ``PROBE_INTERVAL_S``, as its mean
over the whole run (``speed_probe_s``) and over each timing's own
section (``section_probe_s``). The 2-vCPU machine the baseline is
recorded on switches between two speeds about 1.6x apart for spells of
a second or more, so ``compare_bench.py`` divides each wall-clock ratio
by the two payloads' probe ratio for that section before it warns.

Schema v16 adds LU residency to ``inlet_sweep``: ``resident_after_warm``
and ``resident_after_campaign``, the ``solver.lu.resident`` gauges (LU
count and SuperLU ``nnz`` held by the LU store, per ``ordering``) read
after ``CharacterizationCache.warm`` of the cold 4-inlet sweep and after
its runs. The runs start from the kept start-setting fields, not an LU,
so warm-up keeps no steady LU resident (gated) and the runs add only
time-step LUs; neither reading may exceed the baseline's.

Schema v17 changes no field: it marks the ``cross_network`` GMRES
counters as gated. ``compare_bench.py`` fails when, on the same scipy,
``krylov_iterations`` or ``krylov_gmres_solves`` exceeds the baseline's.
The baseline was re-recorded when warm-up began preconditioning a
krylov design sweep from its medoid's LUs, which cut the campaign's
GMRES iterations.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as spla

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import units  # noqa: E402
from repro.control.forecaster import TemperatureForecaster  # noqa: E402
from repro.geometry.stack import CoolingKind, build_stack  # noqa: E402
from repro.power.components import PowerModel  # noqa: E402
from repro.runner import BatchRunner  # noqa: E402
from repro.sim.cache import (  # noqa: E402
    CharacterizationCache,
    clear_system_memo,
)
from repro.sim.config import CoolingMode, PolicyKind, SimulationConfig  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.sim.system import ThermalSystem  # noqa: E402
from repro.thermal.grid import ThermalGrid  # noqa: E402
from repro.thermal.rc_network import ThermalParams, build_network  # noqa: E402
from repro.telemetry import metrics as telemetry_metrics  # noqa: E402
from repro.telemetry import trace as telemetry_trace  # noqa: E402
from repro.thermal.solver import (  # noqa: E402
    SteadyStateSolver,
    TransientSolver,
    clear_neighbor_cache,
    factorize,
)

FLOW = units.ml_per_minute(400.0)

SCHEMA_VERSION = 17

INLETS = (45.0, 55.0, 65.0, 75.0)

#: Iterations of the speed-probe loop, and the least time between two
#: probes taken by the timing helpers (schema v15).
PROBE_ITERATIONS = 3000
PROBE_INTERVAL_S = 0.02


class SpeedProbe:
    """Times a fixed pure-Python loop, at most once per
    ``PROBE_INTERVAL_S``, whenever a timing helper finishes a sample,
    so its times follow the machine's speed while those samples ran."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self, due_only: bool = True) -> None:
        start = time.perf_counter()
        if due_only and start - self._last < PROBE_INTERVAL_S:
            return
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i % 7
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def mean_since(self, first: int) -> float:
        """Mean loop time over the samples from index ``first`` on (one
        taken now if there are none)."""
        if len(self.samples) == first:
            self.sample(due_only=False)
        return statistics.fmean(self.samples[first:])


PROBE = SpeedProbe()


def _median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
        PROBE.sample()
    return statistics.median(samples)


def _interleaved_medians(fns: dict, rounds: int, burst: int = 1) -> dict[str, float]:
    """Median time of each callable over ``rounds`` round-robin passes.

    Each pass samples every callable once, so the machine's speed swings
    fall on all of them alike instead of on whichever ran during a slow
    spell; a handful of back-to-back samples of one call can read 1.5x
    on an unchanged tree. A sample is the mean of ``burst`` consecutive
    calls, so a short call is not timed only right after a neighbor has
    evicted its data from the caches.
    """
    samples: dict[str, list[float]] = {name: [] for name in fns}
    for _ in range(rounds):
        for name, fn in fns.items():
            start = time.perf_counter()
            for _ in range(burst):
                fn()
            samples[name].append((time.perf_counter() - start) / burst)
        PROBE.sample()
    return {name: statistics.median(times) for name, times in samples.items()}


def _forecast_cost(series: list[float], rounds: int) -> float:
    """Median cost per sample of one forecaster ``observe`` + ``predict``
    over ``series``, a fresh forecaster per round."""

    def feed():
        forecaster = TemperatureForecaster()
        for value in series:
            forecaster.observe(value)
            forecaster.predict()

    return _median_time(feed, rounds) / len(series)


def _counter_delta(before: dict, after: dict, name: str) -> int:
    """A telemetry counter's movement between two registry snapshots."""
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def _policy_sweep_configs() -> list:
    """The policy benchmark sweep: 16 runs (4 policies x 4 seeds) over
    one 64x64 thermal network — policy-only, so every run shares the
    same assembled/factorized kernel and steady initial field."""
    return [
        SimulationConfig(policy=policy, seed=seed, nx=64, ny=64, duration=0.2)
        for seed in range(4)
        for policy in ("TALB", "LB", "Mig", "RR")
    ]


def collect_warm_sweep_metrics(repeats: int = 5) -> dict:
    """Warm throughput of the 16-run policy sweep (schema v8).

    Throughput is runs/sec-per-core (everything here executes on one
    core). The ``warm_refactorizations`` counter is the algorithmic
    gate: a warm campaign must perform zero LU factorizations — at most
    one factorization ever happens per (network, dt), however many runs
    step through it.
    """
    cache = CharacterizationCache()
    before = telemetry_metrics.snapshot()
    list(BatchRunner(_policy_sweep_configs(), cache=cache).iter_runs())  # warm
    first_campaign_factorizations = _counter_delta(
        before, telemetry_metrics.snapshot(), "solver.factorizations"
    )
    warm_s = _median_time(
        lambda: list(BatchRunner(_policy_sweep_configs(), cache=cache).iter_runs()), repeats
    )
    before = telemetry_metrics.snapshot()
    list(BatchRunner(_policy_sweep_configs(), cache=cache).iter_runs())
    warm_refactorizations = _counter_delta(
        before, telemetry_metrics.snapshot(), "solver.factorizations"
    )
    n_runs = len(_policy_sweep_configs())
    return {
        "sweep": "16 runs (4 policies x 4 seeds), 64x64, 0.2 s simulated, warm",
        "n_runs": n_runs,
        "warm_s": warm_s,
        "runs_per_sec_per_core": n_runs / warm_s,
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
            _cross_network_configs(solver), cache=CharacterizationCache()
        )
        start = time.perf_counter()
        runs = list(batch.iter_runs())
        elapsed = time.perf_counter() - start
        after = telemetry_metrics.snapshot()
        stats = {
            key: _counter_delta(before, after, "solver.krylov." + key)
            for key in (
                "preconditioner_hits", "preconditioner_misses", "fallbacks",
                "iterations", "gmres_solves",
            )
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
        "krylov_iterations": k_stats["iterations"],
        "krylov_gmres_solves": k_stats["gmres_solves"],
        "max_abs_dT_vs_exact_K": max_abs_dT,
    }


def collect_timing_breakdown() -> dict:
    """Span-derived timing shares of one cold policy sweep (schema v4).

    Runs the 16-run policy campaign cold with span tracing enabled and
    reports every ``span.*`` timer's count, total, and share of the
    campaign wall clock — the same breakdown ``repro telemetry
    summary`` prints for a ``--trace`` run, committed here so the
    trajectory tracks *where* the time goes, not just how much.
    """
    telemetry_trace.enable()
    clear_system_memo()
    before = telemetry_metrics.snapshot()
    start = time.perf_counter()
    list(BatchRunner(_policy_sweep_configs(), cache=CharacterizationCache()).iter_runs())
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


def _resident_lus() -> dict:
    """The LU store's residency gauges, per SuperLU ordering (schema v16),
    once every dropped solver has been collected."""
    gc.collect()
    return {
        ordering: {
            "count": int(telemetry_metrics.gauge("solver.lu.resident").value(
                ordering=ordering
            )),
            "nnz": int(telemetry_metrics.gauge("solver.lu.resident_nnz").value(
                ordering=ordering
            )),
        }
        for ordering in ("pivoted", "symmetric")
    }


def collect_inlet_sweep_metrics() -> dict:
    """LU, unit-response and assembly counts of a cold inlet-temperature
    sweep (schema v6; responses since v12, assemblies since v13), and
    the LUs it keeps resident after warm-up and after its runs (v16).

    Runs the 4-inlet sweep and its first inlet alone, each cold (system
    memo, operator and LU stores, and neighbor pool cleared) and traced.
    The gates are algorithmic: the sweep must assemble, factorize, and
    solve ``R`` blocks exactly as often as the single inlet, and no two
    ``factorize`` spans may carry the same matrix digest.
    """

    def campaign(inlets) -> dict:
        clear_system_memo()
        clear_neighbor_cache()
        telemetry_trace.enable()
        telemetry_trace.clear()
        before = telemetry_metrics.snapshot()
        configs = _inlet_configs(inlets)
        cache = CharacterizationCache().warm(configs)
        after_warm = _resident_lus()
        list(BatchRunner(configs, cache=cache).iter_runs())
        after = telemetry_metrics.snapshot()
        digests = {
            event["attrs"]["digest"]
            for event in telemetry_trace.events()
            if event["name"] == "factorize"
        }
        telemetry_trace.disable()
        telemetry_trace.clear()
        responses = "sim.characterize.unit_responses{kind=%s}"
        return {
            "factorizations": _counter_delta(before, after, "solver.factorizations"),
            "distinct": len(digests),
            "responses": _counter_delta(before, after, responses % "response"),
            "bases": _counter_delta(before, after, responses % "base"),
            "assemblies": _counter_delta(
                before, after, "thermal.assembly{kind=build}"
            ),
            "resident_after_warm": after_warm,
            "resident_after_campaign": _resident_lus(),
        }

    single = campaign(INLETS[:1])
    swept = campaign(INLETS)
    return {
        "sweep": "TALB Var, inlet 45/55/65/75 degC, 16x16, 0.5 s simulated, cold",
        "n_inlets": len(INLETS),
        "single_inlet_factorizations": single["factorizations"],
        "factorizations": swept["factorizations"],
        "distinct_matrices": swept["distinct"],
        "duplicate_factorizations": swept["factorizations"] - swept["distinct"],
        "single_inlet_responses": single["responses"],
        "responses": swept["responses"],
        "single_inlet_bases": single["bases"],
        "bases": swept["bases"],
        "single_inlet_assemblies": single["assemblies"],
        "assemblies": swept["assemblies"],
        "resident_after_warm": swept["resident_after_warm"],
        "resident_after_campaign": swept["resident_after_campaign"],
    }


def collect_facility_metrics(repeats: int = 5) -> dict:
    """Facility co-simulation overhead and convergence (PR 10 / v5).

    Times the warm 1-simulated-second 32x32 run with and without the
    closed-loop facility. The coupling is a per-interval RHS update
    plus the plant energy balance — no extra factorizations — so the
    overhead is the honest price of closing the loop. A run takes ~10
    ms and single ratios scatter by ~±10 %, so the overhead is the
    median of ``12 * repeats + 1`` paired ratios (at least 25; ~1 s at
    the default): the two runs of a pair are adjacent, and which goes
    first alternates, so machine drift cancels within a pair instead of
    between two separate medians. The convergence residual (final inlet
    vs the supply setpoint after a 5 s pull-down with a small tank) is
    the algorithmic sanity value: it is a property of the control law,
    not the machine.
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
    configs = {"fixed": fixed_config, "loop": loop_config}
    samples = {"fixed": [], "loop": []}
    for pair in range(max(25, 12 * repeats + 1)):
        for name in ("fixed", "loop") if pair % 2 == 0 else ("loop", "fixed"):
            start = time.perf_counter()
            Simulator(configs[name], cache=cache).run()
            samples[name].append(time.perf_counter() - start)
    ratio = statistics.median(
        loop / fixed for fixed, loop in zip(samples["fixed"], samples["loop"])
    )

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
        "fixed_inlet_s": statistics.median(samples["fixed"]),
        "closed_loop_s": statistics.median(samples["loop"]),
        "coupling_overhead_pct": 100.0 * (ratio - 1.0),
        "setpoint_c": setpoint,
        "converged_inlet_c": final_inlet,
        "inlet_error_K": abs(final_inlet - setpoint),
        "pue": result.pue(),
    }


def collect_lu_fill(sizes) -> dict:
    """Fill of the 100 ms liquid time-step LU per grid (schema v9)."""
    fill = {}
    for n in sizes:
        grid = ThermalGrid(build_stack(2), nx=n, ny=n)
        net = build_network(grid, ThermalParams(), cavity_flows=[FLOW])
        matrix = (net.conductance + sp.diags(net.capacitance / 0.1)).tocsc()
        fill[f"{n}x{n}"] = {
            "transient": int(factorize(matrix, "transient").lu.nnz),
            "pivoted_transient": int(spla.splu(matrix).nnz),
        }
    return fill


def time_characterization(n: int, repeats: int) -> float:
    """Median cold flow table + burst floor on a fresh ``n x n`` system
    (schema v10), its steady LUs already stored but no unit response
    memoized on them (since v12 ``R`` lives on the shared LU)."""
    config = SimulationConfig(nx=n, ny=n, cooling=CoolingMode.LIQUID_VARIABLE)

    def fresh():
        system = ThermalSystem(2, CoolingKind.LIQUID, nx=n, ny=n)
        for k in range(system.pump.n_settings):
            system.steady_solver(k).memo.clear()
        return system

    system = fresh()  # factorizes each setting's steady LU once
    samples = []
    for _ in range(repeats):
        # The previous system still holds the LUs while this one builds.
        system = fresh()
        start = time.perf_counter()
        cache = CharacterizationCache()
        cache.table(system, config)
        cache.floor(system, config)
        samples.append(time.perf_counter() - start)
        PROBE.sample()
    return statistics.median(samples)


def collect_timings(repeats: int = 5, include_107: bool = True) -> dict:
    """Run the hot-path measurements and return the JSON payload.

    ``environment.speed_probe_s`` is the speed probe's mean over the
    whole run, and ``environment.section_probe_s`` its mean over each
    timing's own section (keyed like ``results``, plus ``warm_sweep``),
    since the machine's speed can change between sections a second
    apart.
    """
    first = len(PROBE.samples)
    results, sections = _collect_results(repeats, include_107)
    mark = len(PROBE.samples)
    warm_sweep = collect_warm_sweep_metrics(repeats=repeats)
    sections["warm_sweep"] = PROBE.mean_since(mark)
    payload = {
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
        "warm_sweep": warm_sweep,
        "cross_network": collect_cross_network_metrics(
            repeats=max(1, repeats // 2)
        ),
        "timing_breakdown": collect_timing_breakdown(),
        "facility": collect_facility_metrics(repeats=repeats),
        "inlet_sweep": collect_inlet_sweep_metrics(),
        "lu_nnz": collect_lu_fill([32, 64] + ([107] if include_107 else [])),
    }
    payload["environment"].update(
        speed_probe_s=PROBE.mean_since(first),
        speed_probe_samples=len(PROBE.samples) - first,
        section_probe_s=sections,
    )
    return payload


def _collect_results(
    repeats: int, include_107: bool
) -> tuple[dict[str, float], dict[str, float]]:
    """The ``results`` timings, and the probe's mean over each one's
    section."""
    results: dict[str, float] = {}
    sections: dict[str, float] = {}
    mark = len(PROBE.samples)

    def note() -> None:
        """Credit the probe samples since the last note to the timings
        taken since then."""
        nonlocal mark
        speed = PROBE.mean_since(mark)
        mark = len(PROBE.samples)
        for name in results:
            sections.setdefault(name, speed)

    sizes = [16, 32, 64] + ([107] if include_107 else [])
    grids = {n: ThermalGrid(build_stack(2), nx=n, ny=n) for n in sizes}
    # Grid construction and the 32x32 steady LU, interleaved.
    setup_calls = {
        f"grid_construction_{n}x{n}": (
            lambda n=n: ThermalGrid(build_stack(2), nx=n, ny=n)
        )
        for n in sizes
    }
    setup_calls["steady_factorization_32x32"] = lambda: SteadyStateSolver(
        build_network(grids[32], ThermalParams(), cavity_flows=[FLOW])
    )
    results.update(_interleaved_medians(setup_calls, max(5, 2 * repeats), burst=3))
    note()

    for n in sizes:
        results[f"assembly_{n}x{n}"] = _median_time(
            lambda n=n: build_network(grids[n], ThermalParams(), cavity_flows=[FLOW]),
            repeats if n < 107 else max(2, repeats // 2),
        )
        note()

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
    note()

    step_calls = {}
    for n in (32, 64):
        net_n = build_network(grids[n], ThermalParams(), cavity_flows=[FLOW])
        solver = TransientSolver(net_n, dt=0.1)
        unit_power = np.zeros(grids[n].n_units)
        unit_power[grids[n].core_index] = 3.0
        power = grids[n].power_vector_from_array(unit_power)
        state = np.full(net_n.n_nodes, 60.0)
        step_calls[f"transient_step_{n}x{n}"] = (
            lambda solver=solver, state=state, power=power: solver.step(state, power)
        )
    results.update(_interleaved_medians(step_calls, repeats * 4, burst=10))
    note()

    # Per-interval kernels at 32x32 (schema v14): the power map and the
    # unit readout, interleaved, on a loaded two-tier state.
    grid32 = grids[32]
    model = PowerModel(grid32.stack)
    unit_keys = list(grid32.unit_keys)
    utilization = [0.9, 0.2, 0.0, 0.6, 1.0, 0.35, 0.0, 0.75]
    asleep = [False, False, True, False, False, False, True, False]
    field = np.linspace(55.0, 80.0, grid32.n_nodes)
    unit_temps = grid32.unit_temperature_vector(field)
    results.update(_interleaved_medians(
        {
            "unit_power_32x32": lambda: model.unit_power_vector(
                unit_keys, utilization, asleep, 0.5, unit_temps
            ),
            "unit_gather_32x32": lambda: grid32.unit_temperature_vector(field),
        },
        repeats * 40,
        burst=10,
    ))
    note()

    results["characterization_32x32"] = time_characterization(32, max(3, repeats // 2))
    note()

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
    note()

    # The same interval once the forecaster runs ARMA: 15 s (150
    # intervals) fits at sample 40 and slides the 120-sample window.
    arma_config = dataclasses.replace(config, duration=15.0)
    Simulator(arma_config, cache=cache).run()  # warm
    results["control_interval_arma_32x32"] = _median_time(
        lambda: Simulator(arma_config, cache=cache).run(), max(3, repeats // 2)
    ) / 150.0
    note()
    # The forecaster alone on that run's T_max series: it fits at sample
    # 40 and reruns the innovations over the sliding window from 120.
    tmax_series = Simulator(arma_config, cache=cache).run().tmax.tolist()
    results["forecast_32x32"] = _forecast_cost(tmax_series, repeats * 4)
    note()
    return results, sections


def test_hotpath_baseline(tmp_path):
    """Pytest entry: payload is well-formed; no absolute-time gates."""
    payload = collect_timings(repeats=2, include_107=False)
    out = tmp_path / "hotpath-timings.json"
    out.write_text(json.dumps(payload))
    loaded = json.loads(out.read_text())
    assert loaded["schema_version"] == SCHEMA_VERSION
    environment = loaded["environment"]
    assert environment["speed_probe_s"] > 0.0
    assert set(environment["section_probe_s"]) == set(loaded["results"]) | {"warm_sweep"}
    assert loaded["results"]["assembly_64x64"] > 0.0
    assert loaded["results"]["control_interval_32x32"] > 0.0
    assert loaded["results"]["control_interval_arma_32x32"] > 0.0
    assert set(loaded["results"]) >= {
        "assembly_16x16",
        "assembly_32x32",
        "assembly_64x64",
        "characterization_32x32",
        "transient_step_32x32",
        "transient_step_64x64",
        "power_scatter_64x64",
        "unit_gather_64x64",
        "unit_power_32x32",
        "unit_gather_32x32",
        "forecast_32x32",
        "simulated_second_32x32",
        "control_interval_32x32",
        "control_interval_arma_32x32",
    }
    warm = loaded["warm_sweep"]
    assert warm["n_runs"] == 16
    assert warm["runs_per_sec_per_core"] > 0.0
    # The algorithmic gate: warm campaigns never refactorize.
    assert warm["warm_refactorizations"] == 0
    cross = loaded["cross_network"]
    assert cross["n_points"] == 16
    # The cross-network gate: krylov factorizes strictly fewer times
    # than it has design points, while exact pays steady+transient LUs
    # for every one of them.
    assert cross["exact_factorizations"] == 2 * cross["n_points"]
    assert cross["krylov_factorizations"] < cross["n_points"]
    assert cross["preconditioner_hit_rate"] > 0.0
    assert cross["max_abs_dT_vs_exact_K"] < 1.0e-6
    assert 0 < cross["krylov_gmres_solves"] <= cross["krylov_iterations"]
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
    # The unit-response gate: R hangs on the shared steady LU, so the
    # sweep solves one R per setting, as one inlet does, and one base
    # column per system and setting.
    assert 0 < inlet["responses"] == inlet["single_inlet_responses"]
    assert inlet["bases"] == inlet["n_inlets"] * inlet["single_inlet_bases"]
    # The assembly gate: G and C are shared by content across inlets.
    assert 0 < inlet["assemblies"] == inlet["single_inlet_assemblies"]
    # The residency gate: warm-up keeps no steady LU (the runs start
    # from the kept start-setting fields); the runs add time-step LUs,
    # no steady one.
    for reading in ("resident_after_warm", "resident_after_campaign"):
        assert inlet[reading]["pivoted"] == {"count": 0, "nnz": 0}
    assert inlet["resident_after_warm"]["symmetric"]["count"] == 0
    fill = loaded["lu_nnz"]
    assert set(fill) == {"32x32", "64x64"}
    for grid_fill in fill.values():
        # Symmetric mode keeps the A + A^T ordering's low fill.
        assert 0 < grid_fill["transient"] < grid_fill["pivoted_transient"]


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
    warm = payload["warm_sweep"]
    print(f"\nwarm sweep: {warm['sweep']}")
    print(f"  {warm['runs_per_sec_per_core']:.1f} runs/s per core")
    print(
        f"  factorizations: first campaign"
        f" {warm['first_campaign_factorizations']},"
        f" warm {warm['warm_refactorizations']}"
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
    print(
        f"  GMRES: {cross['krylov_gmres_solves']} solves,"
        f" {cross['krylov_iterations']} iterations"
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
    print(
        f"  unit responses: {inlet['n_inlets']} inlets"
        f" {inlet['responses']} R + {inlet['bases']} base, one inlet"
        f" {inlet['single_inlet_responses']} R"
        f" + {inlet['single_inlet_bases']} base"
    )
    print(
        f"  assemblies: {inlet['n_inlets']} inlets {inlet['assemblies']},"
        f" one inlet {inlet['single_inlet_assemblies']}"
    )
    for reading in ("resident_after_warm", "resident_after_campaign"):
        resident = inlet[reading]
        print(
            f"  {reading.replace('_', ' ')}: "
            + ", ".join(
                f"{ordering} {lus['count']} LU(s), nnz {lus['nnz']}"
                for ordering, lus in resident.items()
            )
        )
    print("\ntransient LU fill (nnz): symmetric mode vs pivoted")
    for size, grid_fill in payload["lu_nnz"].items():
        print(
            f"  {size:8s} {grid_fill['transient']:>10d}"
            f"  vs {grid_fill['pivoted_transient']:>10d}"
        )
    environment = payload["environment"]
    print(
        f"\nspeed probe: {environment['speed_probe_s'] * 1e6:.0f} us mean over"
        f" {environment['speed_probe_samples']} samples"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
