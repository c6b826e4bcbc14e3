"""Compare a fresh hot-path run against the committed trajectory baseline.

Usage (what CI's perf-trajectory job runs)::

    python benchmarks/bench_hotpath.py --out hotpath-timings.json
    python benchmarks/compare_bench.py hotpath-timings.json \
        --baseline BENCH_hotpath.json

Two kinds of checks, deliberately different in severity:

* **Timing regressions are non-gating.** Absolute wall-clock depends on
  the runner and on its momentary speed, so each wall-clock ratio is
  first divided by the two payloads' speed-probe ratio (schema v15: the
  mean time of one fixed pure-Python loop sampled while that timing's
  section ran, ``environment.section_probe_s``, else over the whole
  run, ``environment.speed_probe_s``); without a probe on both sides
  the raw ratio is used. A >20% corrected median slowdown
  (or warm-sweep throughput loss) prints a GitHub ``::warning::``
  annotation so it shows up on the PR, but the exit code stays 0.
  Timings in ``INFORMATIONAL_RESULTS`` (the ARMA control interval) are
  printed only, never warned on.
* **The algorithmic counters gate.** A warm policy sweep performing
  any LU factorization means kernel sharing broke, and a cross-network
  krylov campaign factorizing as often as it has design points means
  neighbor-LU preconditioning broke, and the same campaign running more
  GMRES iterations or solves than the baseline on the same scipy means
  its preconditioners got worse, and a cold inlet-temperature
  sweep factorizing more often than a single inlet (or factorizing any
  matrix twice) means the content-addressed LU store broke, and the
  same sweep solving more unit-response ``R`` blocks than a single
  inlet means ``R`` stopped being shared through the steady LU, and the
  same sweep assembling more networks than a single inlet means ``G``
  and ``C`` stopped being shared by content, and the same sweep keeping
  any steady LU resident after warm-up, or more LUs (or, on
  the same scipy, more LU fill) than the baseline after warm-up or after
  its runs, means characterization scaffolding stayed resident — those
  are properties of the code, not the machine, so each exits nonzero
  and fails CI.

Schema changes are tolerated in both directions: benchmarks present on
only one side are reported as "new" / "not measured" instead of
failing, and a missing ``cross_network`` (pre-v3), ``timing_breakdown``
(pre-v4), ``facility`` (pre-v5), ``inlet_sweep`` (pre-v6), or baseline
``warm_sweep`` (pre-v8, whose ``cohort`` section is read only for a
note) section is a note, not an error. The current payload must carry
``warm_sweep.warm_refactorizations``: without it the warm gate fails.
The ``lu_nnz`` section (schema v9, transient LU fill per grid) is
printed for the trajectory only; a pre-v9 baseline without it is a
note. The ``cross_network`` GMRES counters (schema v11,
``krylov_iterations`` and ``krylov_gmres_solves``) gate: on the same
scipy neither may exceed the baseline's, and a payload without them on
either side is a note. A current payload of schema v12 or later must
carry ``inlet_sweep.responses``, one of schema v13 or later
``inlet_sweep.assemblies``, and one of schema v16 or later the
``inlet_sweep`` residency readings; an older one without them is a
note, and so is a baseline without them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Fractional median slowdown that triggers a (non-gating) warning.
REGRESSION_THRESHOLD = 0.20

#: Timings printed for the trajectory but never warned on: their
#: samples are long enough to drift with the machine, and the forecaster
#: cost they show is pinned by the telemetry pass-count gate instead.
INFORMATIONAL_RESULTS = frozenset({"control_interval_arma_32x32"})

#: ``cross_network`` readings printed for the trajectory, never warned
#: on: each tier's own time, so a change to one tier is not read only
#: through the other's noise in ``krylov_speedup``.
CROSS_NETWORK_INFORMATIONAL = ("exact_s", "krylov_s")

#: ``cross_network`` GMRES work (schema v11), gated against the baseline
#: on the same scipy: neither count may rise.
CROSS_NETWORK_GMRES = ("krylov_iterations", "krylov_gmres_solves")

#: First schema whose ``inlet_sweep`` must carry the unit-response counts.
RESPONSES_SCHEMA = 12

#: First schema whose ``inlet_sweep`` must carry the assembly counts.
ASSEMBLIES_SCHEMA = 13

#: First schema whose ``inlet_sweep`` must carry the LU residency readings.
RESIDENCY_SCHEMA = 16

#: The ``inlet_sweep`` residency readings: LUs the store holds after
#: warm-up and after the runs, per SuperLU ordering.
RESIDENCY_READINGS = ("resident_after_warm", "resident_after_campaign")


def _warn(message: str) -> None:
    print(f"::warning title=perf regression::{message}")


def _speed_ratios(current: dict, baseline: dict):
    """A function of a timing's name: how many times slower the machine
    ran while ``current`` took it than while ``baseline`` did.

    It divides the speed probes of that timing's own section
    (``environment.section_probe_s``, schema v15), or of the whole runs
    (``environment.speed_probe_s``) where a section is missing on
    either side; it is 1.0 when either payload has no probe.
    """
    cur_env = current.get("environment", {})
    base_env = baseline.get("environment", {})
    cur, base = cur_env.get("speed_probe_s"), base_env.get("speed_probe_s")
    if not cur or not base:
        print("(speed probe: not on both sides, wall-clock ratios are raw)")
        return lambda name: 1.0
    cur_sections = cur_env.get("section_probe_s", {})
    base_sections = base_env.get("section_probe_s", {})
    print(
        f"speed probe: baseline {base * 1e6:.0f} us, current {cur * 1e6:.0f} us"
        " (run means); each wall-clock ratio is divided by its section's"
        " probe ratio"
    )

    def ratio(name: str) -> float:
        if name in cur_sections and name in base_sections:
            return cur_sections[name] / base_sections[name]
        return cur / base

    return ratio


def _compare_cross_network(cur: dict | None, base: dict | None) -> int:
    """Non-gating cross-network comparison; returns warning count.

    Either side may lack the section: the current payload when the
    bench predates schema v3, the baseline until the first v3 payload
    is committed. Both are reported, neither is an error.
    """
    if not cur:
        print("(cross_network: not measured this run)")
        return 0
    if not base:
        print("(cross_network: new this run, no baseline yet)")
        return 0
    warnings = 0
    for key in ("krylov_speedup", "preconditioner_hit_rate"):
        b, c = base.get(key), cur.get(key)
        if b is None or c is None:
            continue
        print(f"{key:32s} {b:9.2f}   {c:9.2f}")
        if c < b * (1.0 - REGRESSION_THRESHOLD):
            warnings += 1
            _warn(f"{key}: {c:.2f} vs baseline {b:.2f}")
    # The tiers' times: printed for the trajectory, never warned on; a
    # baseline without one shows "-".
    for key in CROSS_NETWORK_INFORMATIONAL:
        if key in cur:
            b = base.get(key)
            shown = "-" if b is None else f"{b:.3f}"
            print(f"{key:32s} {shown:>9}   {cur[key]:9.3f}  (informational)")
    return warnings


def _gate_gmres_work(cur: dict | None, base: dict | None, same_superlu: bool) -> int:
    """The GMRES-work gate; returns the failure count.

    The cross-network krylov campaign may run no more GMRES iterations
    and no more GMRES solves than the baseline's, when both payloads ran
    the same scipy (its SuperLU sets the preconditioner's roundoff, so
    another version may take an iteration more or less). A count
    missing on either side (a pre-v11 payload) is a note.
    """
    if not cur:
        return 0
    base = base or {}
    failures = 0
    for key in CROSS_NETWORK_GMRES:
        c, b = cur.get(key), base.get(key)
        if c is None or b is None:
            print(f"({key}: not on both sides, not gated)")
        elif not same_superlu:
            print(f"{key:32s} {b:9d}   {c:9d}  (scipy differs from the baseline's, not gated)")
        elif c > b:
            failures += 1
            print(
                f"::error title=perf gate::cross-network krylov campaign ran"
                f" {key} {c}, above the baseline's {b} (a worse"
                " preconditioner, or one chosen farther from the points it"
                " serves)"
            )
        else:
            print(f"{key:32s} {b:9d}   {c:9d}  (gate: ok, <= baseline)")
    return failures


def _compare_facility(cur: dict | None, base: dict | None) -> int:
    """Non-gating facility coupling comparison; returns warning count.

    Either side may lack the section (pre-v5 payloads). The coupling
    overhead is a ratio of two timings on the same machine, so unlike
    absolute wall-clock it is comparable across runners — but it still
    only warns. The convergence residual is asserted by the bench's own
    pytest entry, not here.
    """
    if not cur:
        print("(facility: not measured this run)")
        return 0
    if not base:
        print("(facility: new this run, no baseline yet)")
        return 0
    warnings = 0
    b = base.get("coupling_overhead_pct")
    c = cur.get("coupling_overhead_pct")
    if b is not None and c is not None:
        print(f"{'facility_coupling_overhead':32s} {b:8.1f}%  {c:8.1f}%")
        # Warn when closing the loop got meaningfully more expensive:
        # beyond the relative threshold AND more than one absolute
        # point, so jitter around a near-zero baseline stays quiet.
        if c > b * (1.0 + REGRESSION_THRESHOLD) and c > b + 1.0:
            warnings += 1
            _warn(
                f"facility coupling overhead: {c:.1f}% vs baseline {b:.1f}%"
            )
    return warnings


def _compare_timing_breakdown(cur: dict | None, base: dict | None) -> None:
    """Informational span-share comparison (schema v4; never gates).

    Timing shares are machine-sensitive and the section may be absent
    on either side (pre-v4 payloads), so this only prints — no
    warnings, no failures.
    """
    if not cur:
        print("(timing_breakdown: not measured this run)")
        return
    if not base:
        print("(timing_breakdown: new this run, no baseline yet)")
        return
    cur_spans = cur.get("spans", {})
    base_spans = base.get("spans", {})
    shared = sorted(set(cur_spans) & set(base_spans))
    if not shared:
        return
    print(f"{'span share of wall':32s} {'baseline':>10s} {'current':>10s}")
    for name in shared:
        print(
            f"span.{name:27s} {base_spans[name]['share_of_wall']:9.1%} "
            f"{cur_spans[name]['share_of_wall']:9.1%}"
        )


def _compare_lu_fill(cur: dict | None, base: dict | None) -> None:
    """Informational transient LU fill per grid (schema v9; never gates)."""
    if not cur:
        print("(lu_nnz: not measured this run)")
        return
    base = base or {}
    print(f"{'transient LU nnz':32s} {'baseline':>10s} {'current':>10s}")
    for size, fill in cur.items():
        before = base.get(size, {}).get("transient")
        shown = "-" if before is None else f"{before:d}"
        print(f"lu_nnz_{size:25s} {shown:>10s} {fill['transient']:>10d}")
    if not base:
        print("(lu_nnz: new this run, no baseline yet)")


def _compare_warm_sweep(
    cur: dict | None, base: dict | None, old: dict | None, speed: float = 1.0
) -> int:
    """Non-gating warm-sweep throughput comparison; returns warning count.

    The current throughput is multiplied by ``speed`` (the speed-probe
    ratio) before it is compared. A pre-v8 baseline has a ``cohort``
    section (``old``) instead, whose serial/exact/block timings
    measured paths that no longer exist; it is noted, never compared.
    """
    if not cur:
        print("(warm_sweep: not measured this run)")
        return 0
    if not base:
        note = " (baseline has the pre-v8 cohort section)" if old else ""
        print(f"(warm_sweep: new this run, no baseline yet{note})")
        return 0
    b, c = base.get("runs_per_sec_per_core"), cur.get("runs_per_sec_per_core")
    if b is None or c is None:
        return 0
    print(f"{'warm_sweep_runs_per_sec_per_core':32s} {b:9.2f}   {c:9.2f}")
    if c * speed < b * (1.0 - REGRESSION_THRESHOLD):
        _warn(
            f"warm sweep: {c:.2f} runs/s ({c * speed:.2f} speed-corrected)"
            f" vs baseline {b:.2f}"
        )
        return 1
    return 0


def _gate_warm_sweep(warm: dict | None) -> int:
    """The shared-kernel gate; returns the failure count.

    A warm campaign must perform zero LU factorizations.
    """
    refactor = (warm or {}).get("warm_refactorizations")
    if refactor is None:
        print(
            "::error title=perf gate::current payload has no"
            " warm_sweep.warm_refactorizations counter"
        )
        return 1
    if refactor != 0:
        print(
            "::error title=perf gate::warm policy sweep performed"
            f" {refactor} LU factorizations (expected 0 — the shared"
            " kernel must factorize at most once per network)"
        )
        return 1
    print("warm_refactorizations               0  (gate: ok)")
    return 0


def _gate_inlet_sweep(inlet: dict | None, schema: int = 0) -> int:
    """The LU-store gate (schema v6), the unit-response gate (v12) and
    the assembly gate (v13); returns the failure count.

    Inlets share every matrix, so a cold inlet sweep must factorize
    exactly as often as its single-inlet run, with no duplicate LU,
    solve exactly as many unit-response ``R`` blocks as it (``R`` hangs
    on the shared steady LU), and assemble exactly as many networks as
    it (``G`` and ``C`` are shared by content).
    """
    if inlet is None:
        print("(inlet_sweep: not measured this run)")
        return 0
    failures = 0
    swept = inlet.get("factorizations")
    single = inlet.get("single_inlet_factorizations")
    duplicates = inlet.get("duplicate_factorizations")
    if swept is None or swept != single or duplicates != 0:
        failures += 1
        print(
            "::error title=perf gate::cold inlet sweep performed"
            f" {swept} LU factorizations ({duplicates} duplicates) vs"
            f" {single} for a single inlet (expected equal, no duplicates"
            " — the inlet moves only the boundary vector, so every matrix"
            " must be factorized once)"
        )
    else:
        print(
            f"inlet_sweep_factorizations {swept:9d}"
            "  (gate: ok, = single inlet, 0 duplicates)"
        )
    failures += _gate_as_single_inlet(
        inlet, "responses", schema, RESPONSES_SCHEMA,
        "solved {swept} unit-response R blocks vs {single} for a single inlet"
        " (expected equal — R depends on the steady matrix alone, so the"
        " inlets must share it)",
    )
    failures += _gate_as_single_inlet(
        inlet, "assemblies", schema, ASSEMBLIES_SCHEMA,
        "assembled {swept} networks vs {single} for a single inlet (expected"
        " equal — the inlet moves only the boundary vector, so the inlets"
        " must share G and C)",
    )
    return failures


def _gate_as_single_inlet(
    inlet: dict, key: str, schema: int, first_schema: int, failure: str
) -> int:
    """Gate ``inlet[key]`` (positive, equal to ``single_inlet_<key>``) for
    payloads of ``first_schema`` or later; an older payload without the
    count is a note. Returns the failure count."""
    swept = inlet.get(key)
    if swept is None and schema < first_schema:
        print(f"(inlet_sweep {key}: not measured, pre-v{first_schema} payload)")
        return 0
    single = inlet.get("single_inlet_" + key)
    if not swept or swept != single:
        print("::error title=perf gate::cold inlet sweep " + failure.format(
            swept=swept, single=single
        ))
        return 1
    print(f"{'inlet_sweep_' + key:26s} {swept:9d}  (gate: ok, = single inlet)")
    return 0


def _gate_residency(
    inlet: dict | None, base: dict | None, schema: int, same_superlu: bool
) -> int:
    """The residency gate (schema v16); returns the failure count.

    After warm-up the cold inlet sweep must hold no steady (pivoted)
    LU: its runs start from the kept start-setting fields. No LU count,
    after warm-up or after the runs, may exceed the baseline's, nor may
    its fill (``nnz``) when both payloads ran the same scipy, whose
    SuperLU sets the fill.
    """
    if inlet is None:
        return 0
    if any(reading not in inlet for reading in RESIDENCY_READINGS):
        if schema < RESIDENCY_SCHEMA:
            print(f"(inlet_sweep residency: not measured, pre-v{RESIDENCY_SCHEMA} payload)")
            return 0
        print("::error title=perf gate::current payload has no inlet_sweep residency readings")
        return 1
    failures = 0
    steady = inlet["resident_after_warm"]["pivoted"]["count"]
    if steady != 0:
        failures += 1
        print(
            "::error title=perf gate::cold inlet sweep kept"
            f" {steady} steady LUs resident after warm-up (expected 0 — its"
            " runs start from the kept start-setting fields)"
        )
    else:
        print("resident_steady_after_warm         0  (gate: ok)")
    base = base or {}
    if any(reading not in base for reading in RESIDENCY_READINGS):
        print("(inlet_sweep residency: no baseline readings)")
        return failures
    fields = ("count", "nnz") if same_superlu else ("count",)
    if not same_superlu:
        print("(inlet_sweep residency nnz: scipy differs from the baseline's, not gated)")
    for reading in RESIDENCY_READINGS:
        for ordering, lus in sorted(inlet[reading].items()):
            for field in fields:
                cur = lus[field]
                ref = base[reading].get(ordering, {}).get(field, 0)
                name = f"{reading}.{ordering}.{field}"
                if cur > ref:
                    failures += 1
                    print(
                        f"::error title=perf gate::cold inlet sweep {name} is"
                        f" {cur}, above the baseline's {ref}"
                    )
                else:
                    print(f"{name:42s} {cur:10d}  (gate: ok, <= {ref})")
    return failures


def compare(current: dict, baseline: dict) -> int:
    """Print the comparison; return the number of gating failures."""
    failures = 0
    warnings = 0
    speed = _speed_ratios(current, baseline)

    cur_results = current.get("results", {})
    base_results = baseline.get("results", {})
    shared = sorted(set(cur_results) & set(base_results))
    skipped = sorted(set(base_results) - set(cur_results))
    # One-sided keys are informational, never fatal: a schema bump adds
    # benchmarks the old baseline lacks ("new"), and a trimmed run may
    # omit benchmarks the baseline has ("not measured this run").
    new = sorted(set(cur_results) - set(base_results))
    print(
        f"{'benchmark':32s} {'baseline':>10s} {'current':>10s} {'ratio':>7s}"
        f" {'probe':>6s}"
    )
    for name in shared:
        base, cur = base_results[name], cur_results[name]
        probe = speed(name)
        ratio = cur / base / probe if base > 0 else float("inf")
        flag = ""
        if name in INFORMATIONAL_RESULTS:
            flag = "  (informational)"
        elif ratio > 1.0 + REGRESSION_THRESHOLD:
            flag = "  <-- regressed"
            warnings += 1
            _warn(
                f"{name}: {cur * 1e3:.3f} ms vs baseline "
                f"{base * 1e3:.3f} ms ({ratio:.2f}x speed-corrected)"
            )
        print(
            f"{name:32s} {base * 1e3:9.3f}ms {cur * 1e3:9.3f}ms "
            f"{ratio:6.2f}x {probe:5.2f}x{flag}"
        )
    if skipped:
        print(f"(not measured this run: {', '.join(skipped)})")
    if new:
        print(f"(new this run, no baseline yet: {', '.join(new)})")

    warnings += _compare_warm_sweep(
        current.get("warm_sweep"),
        baseline.get("warm_sweep"),
        baseline.get("cohort"),
        speed("warm_sweep"),
    )
    warnings += _compare_cross_network(
        current.get("cross_network"), baseline.get("cross_network")
    )
    warnings += _compare_facility(
        current.get("facility"), baseline.get("facility")
    )
    _compare_timing_breakdown(
        current.get("timing_breakdown"), baseline.get("timing_breakdown")
    )
    _compare_lu_fill(current.get("lu_nnz"), baseline.get("lu_nnz"))

    failures += _gate_warm_sweep(current.get("warm_sweep"))

    cross = current.get("cross_network")
    if cross is not None:
        factorizations = cross.get("krylov_factorizations")
        n_points = cross.get("n_points", 0)
        if factorizations is None or factorizations >= n_points:
            failures += 1
            print(
                "::error title=perf gate::cross-network krylov campaign"
                f" performed {factorizations} LU factorizations over"
                f" {n_points} design points (expected strictly fewer —"
                " neighbor-LU preconditioning must reuse factors across"
                " thermal-parameter points)"
            )
        else:
            print(
                f"krylov_factorizations   {factorizations:12d}"
                f"  (gate: ok, < {n_points} design points)"
            )

    same_superlu = (
        current.get("environment", {}).get("scipy")
        == baseline.get("environment", {}).get("scipy")
    )
    failures += _gate_gmres_work(
        current.get("cross_network"), baseline.get("cross_network"), same_superlu
    )
    failures += _gate_inlet_sweep(
        current.get("inlet_sweep"), current.get("schema_version", 0)
    )
    failures += _gate_residency(
        current.get("inlet_sweep"),
        baseline.get("inlet_sweep"),
        current.get("schema_version", 0),
        same_superlu,
    )

    print(
        f"\n{len(shared)} benchmarks compared, {warnings} regression"
        f" warning(s) (non-gating), {failures} gating failure(s)"
    )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="freshly measured payload")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_hotpath.json",
        help="committed trajectory baseline (default: repo BENCH_hotpath.json)",
    )
    args = parser.parse_args(argv)
    current = json.loads(args.current.read_text())
    baseline = json.loads(args.baseline.read_text())
    return 1 if compare(current, baseline) else 0


if __name__ == "__main__":
    sys.exit(main())
