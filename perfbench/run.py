"""Campaign benchmark of the variable-flow liquid-cooling co-simulation.

    python3 perfbench/run.py --workload cold-inlet-sweep --seed 0 \
        --seconds 44 --trace 0

Runs one workload of ``BENCHMARK.json`` from the root of a source
checkout (the program is imported from ``src/``). Each sample is a fresh
interpreter with BLAS/OpenMP pinned to one thread; samples run one at a
time, as many as fit ``--seconds`` on the nominal machine (at least
two). With ``--trace 0`` it reports the end-to-end metrics as medians
over the samples, times corrected for the machine's momentary speed
(see ``sample.py``; the raw wall times are printed too); with
``--trace 1`` it runs one untraced and one traced sample of the same
inputs and reports the per-layer metrics of the traced one.

Every run's output is checked against ``perfbench/references.json``
(regenerate with ``perfbench/make_references.py``); a run that raises or
disagrees counts as failed. ``--seed n`` selects instance ``n mod 32``
of each workload's seed axis, the instances the references cover.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Lines before it give each
metric with its unit, ``runs_failed`` against ``runs``, the python,
numpy and scipy versions, ``nproc`` and the load average; the full
record, samples included, goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
DEADLINE_S = 170.0
"""Samples stop being started, and a running one is killed, at this
age of the run, so that a run always exits within 180 s."""
MIN_SAMPLES = 2
MAX_SAMPLES = 8
OVERRUN = 1.25


def _refuse(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def run_sample(args, base: int, traced: str, scratch: Path, started: float):
    """One fresh-interpreter sample; returns (record or None, error)."""
    command = [
        sys.executable,
        str(HERE / "sample.py"),
        "--workload", args.workload,
        "--base-seed", str(base),
        "--size", args.size,
        "--scratch", str(scratch),
    ]
    if traced:
        command += ["--traced", traced]
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, DEADLINE_S - (time.perf_counter() - started))
        )
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "sample timed out"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        return None, f"sample exited {proc.returncode}: {stderr.strip()[-400:]}"
    try:
        record = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, "sample printed no result"
    if not Path(record["repro"]).is_relative_to(ROOT / "src"):
        return None, f"sample imported repro from {record['repro']}"
    return record, None


def check_sample(record, references: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) of one sample's runs."""
    failed = record["runs"] - len(record["rows"])  # runs that never finished
    messages = [error.strip().splitlines()[-1] for error in record["errors"]]
    for row in record["rows"]:
        reference = references.get(row["key"])
        if reference is None or not workloads.row_matches(row, reference):
            failed += 1
            messages.append(f"run {row['key']} disagrees with its reference")
    return record["runs"], failed, messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    parser.add_argument("--references", default=str(HERE / "references.json"))
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exit so the running sample is killed and
    # waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _refuse(f"no program source at {ROOT / 'src' / 'repro'}")
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        store = json.loads(Path(args.references).read_text())
        references = store["sizes"][args.size][args.workload]
        instances = int(store["instances"])
    except (OSError, ValueError, KeyError) as exc:
        _refuse(f"cannot load BENCHMARK.json or references: {exc!r}")
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    base = args.seed % instances
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    scratch = out_dir / f"scratch-{os.getpid()}"
    load_before = os.getloadavg()

    started = time.perf_counter()
    if args.trace:
        plans = ["", "all"] if workloads.is_cold(args.workload) else ["1"]
    else:
        count = round(seconds / workloads.SAMPLE_SECONDS[args.workload])
        plans = [""] * max(MIN_SAMPLES, min(MAX_SAMPLES, count))
    samples, errors = [], []
    attempted = failed = 0
    for done, traced in enumerate(plans):
        elapsed = time.perf_counter() - started
        # A machine much slower than the nominal one gets fewer samples
        # rather than a run far beyond --seconds.
        if elapsed > DEADLINE_S or (
            done >= MIN_SAMPLES and elapsed * (done + 1) / done > OVERRUN * seconds
        ):
            break
        record, error = run_sample(args, base, traced, scratch, started)
        if record is None:
            errors.append(error)
            attempted += workloads.runs_per_sample(args.workload)
            failed += workloads.runs_per_sample(args.workload)
            continue
        runs, bad, messages = check_sample(record, references)
        attempted += runs
        failed += bad
        errors += messages
        samples.append(record)

    metrics: dict[str, float] = {}
    untraced = [
        c["seconds"] for s in samples for c in s["campaigns"] if not c["traced"]
    ]
    if args.trace:
        wanted = declared["per_layer"]
        traced_samples = [s for s in samples if "layers" in s]
        if traced_samples:
            metrics.update(traced_samples[0]["layers"])
            traced_campaigns = [
                c["seconds"] for c in traced_samples[0]["campaigns"] if c["traced"]
            ]
            if untraced and traced_campaigns:
                metrics["trace.overhead_pct"] = 100.0 * (
                    statistics.median(traced_campaigns) / statistics.median(untraced)
                    - 1.0
                )
    else:
        wanted = declared["end_to_end"]
        if samples:
            metrics["setup_s"] = statistics.median(
                s["setup"]["seconds"] for s in samples
            )
            metrics["peak_rss_mb"] = statistics.median(
                s["peak_rss_mb"] for s in samples
            )
        if untraced:
            metrics["campaign_s"] = statistics.median(untraced)
    report = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in metrics
    }
    missing = [m["name"] for m in wanted if m["name"] not in metrics]

    first = samples[0] if samples else {}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "instance": base,
        "size": args.size,
        "trace": args.trace,
        "python": first.get("python"),
        "numpy": first.get("numpy"),
        "scipy": first.get("scipy"),
        "nproc": _nproc(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "samples": [
            {k: v for k, v in s.items() if k != "rows"} for s in samples
        ],
        "errors": errors,
        "runs": attempted,
        "runs_failed": failed,
        "missing": missing,
        "metrics": report,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))

    print(
        f"{args.workload}  seed {args.seed} (instance {base})  size {args.size}  "
        f"samples {len(samples)}  campaigns {len(untraced)} untraced"
    )
    print(
        f"python {record['python']}  numpy {record['numpy']}  scipy {record['scipy']}"
        f"  nproc {record['nproc']}  loadavg "
        + " ".join(f"{x:.2f}" for x in load_before)
    )
    for metric, entry in report.items():
        value = entry["value"]
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"  {metric:26s} {shown} {entry['unit']}")
    if not args.trace and samples:
        # The raw wall times behind the speed-corrected ones.
        walls = {
            "setup": [s["setup"]["wall_s"] for s in samples],
            "campaign": [
                c["wall_s"] for s in samples for c in s["campaigns"] if not c["traced"]
            ],
        }
        for region, values in walls.items():
            print(f"  {region + ' wall (median)':26s} {statistics.median(values):14.6f} s")
    print(f"  {'runs_failed':26s} {failed} of {attempted} runs")
    for metric in missing:
        print(f"  {metric:26s} missing")
    for error in errors[:10]:
        print(f"  error: {error}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and bool(samples),
                "attempted": attempted,
                "failed": failed,
                "metrics": report,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
