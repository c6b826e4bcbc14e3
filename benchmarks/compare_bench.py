"""Compare a fresh hot-path run against the committed trajectory baseline.

Usage (what CI's perf-trajectory job runs)::

    python benchmarks/bench_hotpath.py --out hotpath-timings.json
    python benchmarks/compare_bench.py hotpath-timings.json \
        --baseline BENCH_hotpath.json

Two kinds of checks, deliberately different in severity:

* **Timing regressions are non-gating.** Absolute wall-clock depends on
  the runner; a >20% median slowdown (or cohort-speedup loss) prints a
  GitHub ``::warning::`` annotation so it shows up on the PR, but the
  exit code stays 0.
* **The algorithmic counters gate.** A warm cohort campaign performing
  any LU factorization means kernel sharing broke, and a cross-network
  krylov campaign factorizing as often as it has design points means
  neighbor-LU preconditioning broke, and a cold inlet-temperature
  sweep factorizing more often than a single inlet (or factorizing any
  matrix twice) means the content-addressed LU store broke — those are
  properties of the code, not the machine, so each exits nonzero and
  fails CI.

Schema changes are tolerated in both directions: benchmarks present on
only one side are reported as "new" / "not measured" instead of
failing, and a missing ``cross_network`` (pre-v3), ``timing_breakdown``
(pre-v4), ``facility`` (pre-v5), or ``inlet_sweep`` (pre-v6) section is
a note, not an error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Fractional median slowdown that triggers a (non-gating) warning.
REGRESSION_THRESHOLD = 0.20


def _warn(message: str) -> None:
    print(f"::warning title=perf regression::{message}")


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
    return warnings


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


def _gate_inlet_sweep(inlet: dict | None) -> int:
    """The LU-store gate (schema v6); returns the failure count.

    Inlets share every matrix, so a cold inlet sweep must factorize
    exactly as often as its single-inlet run, with no duplicate LU.
    """
    if inlet is None:
        print("(inlet_sweep: not measured this run)")
        return 0
    swept = inlet.get("factorizations")
    single = inlet.get("single_inlet_factorizations")
    duplicates = inlet.get("duplicate_factorizations")
    if swept is None or swept != single or duplicates != 0:
        print(
            "::error title=perf gate::cold inlet sweep performed"
            f" {swept} LU factorizations ({duplicates} duplicates) vs"
            f" {single} for a single inlet (expected equal, no duplicates"
            " — the inlet moves only the boundary vector, so every matrix"
            " must be factorized once)"
        )
        return 1
    print(
        f"inlet_sweep_factorizations {swept:9d}"
        "  (gate: ok, = single inlet, 0 duplicates)"
    )
    return 0


def compare(current: dict, baseline: dict) -> int:
    """Print the comparison; return the number of gating failures."""
    failures = 0
    warnings = 0

    cur_results = current.get("results", {})
    base_results = baseline.get("results", {})
    shared = sorted(set(cur_results) & set(base_results))
    skipped = sorted(set(base_results) - set(cur_results))
    # One-sided keys are informational, never fatal: a schema bump adds
    # benchmarks the old baseline lacks ("new"), and a trimmed run may
    # omit benchmarks the baseline has ("not measured this run").
    new = sorted(set(cur_results) - set(base_results))
    print(f"{'benchmark':32s} {'baseline':>10s} {'current':>10s} {'ratio':>7s}")
    for name in shared:
        base, cur = base_results[name], cur_results[name]
        ratio = cur / base if base > 0 else float("inf")
        flag = ""
        if ratio > 1.0 + REGRESSION_THRESHOLD:
            flag = "  <-- regressed"
            warnings += 1
            _warn(
                f"{name}: {cur * 1e3:.3f} ms vs baseline "
                f"{base * 1e3:.3f} ms ({ratio:.2f}x)"
            )
        print(
            f"{name:32s} {base * 1e3:9.3f}ms {cur * 1e3:9.3f}ms "
            f"{ratio:6.2f}x{flag}"
        )
    if skipped:
        print(f"(not measured this run: {', '.join(skipped)})")
    if new:
        print(f"(new this run, no baseline yet: {', '.join(new)})")

    cur_cohort = current.get("cohort", {})
    base_cohort = baseline.get("cohort", {})
    for key in ("cohort_exact_speedup", "cohort_block_speedup"):
        base, cur = base_cohort.get(key), cur_cohort.get(key)
        if base is None or cur is None:
            continue
        print(f"{key:32s} {base:9.2f}x  {cur:9.2f}x")
        if cur < base * (1.0 - REGRESSION_THRESHOLD):
            warnings += 1
            _warn(f"{key}: {cur:.2f}x vs baseline {base:.2f}x")

    warnings += _compare_cross_network(
        current.get("cross_network"), baseline.get("cross_network")
    )
    warnings += _compare_facility(
        current.get("facility"), baseline.get("facility")
    )
    _compare_timing_breakdown(
        current.get("timing_breakdown"), baseline.get("timing_breakdown")
    )

    refactor = cur_cohort.get("warm_refactorizations")
    if refactor is None:
        failures += 1
        print(
            "::error title=perf gate::current payload has no"
            " cohort.warm_refactorizations counter"
        )
    elif refactor != 0:
        failures += 1
        print(
            "::error title=perf gate::warm cohort campaign performed"
            f" {refactor} LU factorizations (expected 0 — the shared"
            " kernel must factorize at most once per network)"
        )
    else:
        print("warm_refactorizations               0  (gate: ok)")

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

    failures += _gate_inlet_sweep(current.get("inlet_sweep"))

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
