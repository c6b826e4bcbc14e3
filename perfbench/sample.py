"""One benchmark sample: a fresh interpreter that sets up and runs campaigns.

Started by ``perfbench/run.py`` with BLAS/OpenMP pinned to one thread.
A cold sample pays set-up (spec expansion, system assembly, offline
characterization through the default cache's ``warm()``) and runs the
campaign once. A warm sample also runs one untimed fill pass in set-up,
then times ``WARM_REPS`` campaigns, each on a seed no earlier campaign in
the process ran, so nothing can be served from a memo of results.

Prints one JSON object as its last line of output: timings, peak RSS,
the checked fields of every export row, and, when traced, the per-layer
metrics.

Timed regions are corrected for the machine's momentary speed. The
2-vCPU machine this benchmark was built on switches between two speeds
about 1.6x apart every second or so, and the share of slow time drifts
over minutes, so raw wall times of identical runs spread by 30 % and
more. While a region runs, a SIGALRM handler times a fixed pure-Python
loop every ``PROBE_INTERVAL_S``; the region's reported time is its wall
time scaled by ``NOMINAL_PROBE_S`` over the loop's mean time, i.e. the
wall time on the machine in its fast state. Raw wall and CPU times are
reported beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from layers import CAMPAIGN, SETUP, Tracer  # noqa: E402

PROBE_INTERVAL_S = 0.025
PROBE_ITERATIONS = 3000
NOMINAL_PROBE_S = 2.0e-4
"""Time of the probe loop on the reference machine in its fast state."""


class SpeedProbe:
    """Times a fixed loop every ``PROBE_INTERVAL_S`` inside timed regions."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        signal.signal(signal.SIGALRM, self._probe)

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i % 7
        self._samples.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def region(self, timing: dict):
        """Fill ``timing`` with the region's speed-corrected ``seconds``,
        its ``wall_s`` and ``cpu_s`` (CPU time tells time stolen by the
        host apart from a slower program)."""
        self._samples = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter()
        cpu = time.process_time()
        try:
            yield timing
        finally:
            wall = time.perf_counter() - start
            timing["cpu_s"] = time.process_time() - cpu
            signal.setitimer(signal.ITIMER_REAL, 0)
            probe = statistics.fmean(self._samples) if self._samples else None
            timing["wall_s"] = wall
            timing["probe_s"] = probe
            timing["seconds"] = wall * NOMINAL_PROBE_S / probe if probe else wall


def _campaign(workload, spec, scratch, tracer, probe, trace_id):
    """Run one campaign; returns (timing, rows, error)."""
    from repro import SweepRunner

    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    runner = SweepRunner(spec, **workloads.runner_options(workload, scratch))
    timing: dict = {}
    try:
        with probe.region(timing), tracer.phase(CAMPAIGN, trace_id):
            result = runner.run()
    except Exception:  # a failed campaign counts its runs as failed
        return timing, [], traceback.format_exc(limit=3)
    rows = [
        {"key": workloads.row_key(row["key"]), **workloads.checked_row(row)}
        for row in result.rows
    ]
    return timing, rows, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--base-seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    parser.add_argument(
        "--traced",
        default="",
        help="index of the campaign to trace (0 = the cold campaign or the "
        "first warm repetition), or 'all' to trace set-up and campaign",
    )
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)

    import numpy
    import scipy

    import repro
    from repro.sim.engine import default_cache

    probe = SpeedProbe()
    tracer = Tracer()
    traced_all = args.traced == "all"
    traced_index = int(args.traced) if args.traced.isdigit() else None
    if args.traced:
        tracer.install()
    scratch = Path(args.scratch)
    workload = args.workload
    base = args.base_seed
    out = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro": str(Path(repro.__file__).resolve().parent),
        "campaigns": [],
        "rows": [],
        "runs": 0,
        "errors": [],
    }

    tracer.active = traced_all
    setup: dict = {}
    with probe.region(setup), tracer.phase(SETUP, "setup"):
        first = workloads.campaign_spec(workload, args.size, [base])
        default_cache().warm([point.config for point in first.iter_points()])
    if not workloads.is_cold(workload):
        # The fill pass is part of set-up, not of the timed campaign.
        fill, rows, error = _campaign(
            workload, first, scratch, tracer, probe, "fill"
        )
        for key in ("seconds", "wall_s", "cpu_s"):
            setup[key] += fill.get(key, 0.0)
        out["runs"] += first.run_count
        out["rows"] += rows
        if error:
            out["errors"].append(error)
    out["setup"] = setup

    if workloads.is_cold(workload):
        plan = [(0, first)]
    else:
        plan = [
            (r, workloads.campaign_spec(workload, args.size, [base + 1 + r]))
            for r in range(workloads.WARM_REPS)
        ]
    for index, spec in plan:
        is_traced = traced_all or index == traced_index
        tracer.active = is_traced
        timing, rows, error = _campaign(
            workload, spec, scratch, tracer, probe, f"campaign-{index}"
        )
        tracer.active = False
        out["campaigns"].append({**timing, "traced": is_traced})
        out["runs"] += spec.run_count
        out["rows"] += rows
        if error:
            out["errors"].append(error)
    shutil.rmtree(scratch, ignore_errors=True)

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.traced:
        out["layers"] = tracer.metrics()
        out["missing"] = sorted(tracer.missing)
        trace_path = scratch.parent / f"trace-{workload}-{base}.jsonl"
        tracer.write_jsonl(trace_path)
        out["trace_file"] = str(trace_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
