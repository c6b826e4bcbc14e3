"""Self-test of the benchmark harness at toy size (16x16 grids, 1 s runs).

    python3 perfbench/selftest.py

Checks that
  * every end-to-end and per-layer metric of BENCHMARK.json is emitted,
    with its unit, on every workload;
  * the counts thermal.lu.count, thermal.lu.duplicate, sim.interval.count
    and thermal.gmres.count repeat exactly across two traced runs;
  * a corrupted reference row is reported as a failed run;
  * without the program's source the harness exits non-zero and prints
    no result.
Takes about a minute; writes only under .perfbench/selftest.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

REPEATED_COUNTS = (
    "thermal.lu.count",
    "thermal.lu.duplicate",
    "sim.interval.count",
    "thermal.gmres.count",
)


def harness(references: Path, workload: str, trace: int, cwd: Path = ROOT):
    """Run the harness at toy size; returns (exit code, parsed last line)."""
    proc = subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--size", "toy",
            "--references", str(references),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    references = work / "references.json"
    subprocess.run(
        [sys.executable, str(HERE / "make_references.py"), "--size", "toy",
         "--instances", "2", "--out", str(references)],
        check=True, capture_output=True, timeout=170,
    )
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    def units(metrics):
        return {name: entry["unit"] for name, entry in metrics.items()}

    for workload in workloads.WORKLOADS:
        code, result = harness(references, workload, 0)
        check(
            code == 0
            and result is not None
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and result["correct"]
            and result["failed"] == 0,
            f"{workload}: untraced run is correct",
        )
        want = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        check(
            result is not None and units(result["metrics"]) == want,
            f"{workload}: every end-to-end metric with its unit",
        )
        traced = [harness(references, workload, 1)[1] for _ in range(2)]
        want = {m["name"]: m["unit"] for m in declared["per_layer"]}
        check(
            all(r is not None and units(r["metrics"]) == want for r in traced),
            f"{workload}: every per-layer metric with its unit",
        )
        if all(r is not None for r in traced):
            counts = [
                {name: r["metrics"].get(name, {}).get("value") for name in REPEATED_COUNTS}
                for r in traced
            ]
            check(
                counts[0] == counts[1],
                f"{workload}: counts repeat across traced runs {counts[0]}",
            )

    store = json.loads(references.read_text())
    rows = store["sizes"]["toy"]["cold-inlet-sweep"]
    # --seed 1 of a 2-instance store runs instance 1, i.e. seed 1.
    first = min(key for key in rows if key.startswith("seed=1,"))
    rows[first]["peak_temperature_sensor"] += 1.0e-3
    corrupted = work / "corrupted.json"
    corrupted.write_text(json.dumps(store))
    code, result = harness(corrupted, "cold-inlet-sweep", 0)
    check(
        code == 0
        and result is not None
        and not result["correct"]
        and result["failed"] >= 1,
        "a corrupted reference row is reported as a failed run",
    )

    bare = work / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result = harness(references, "cold-inlet-sweep", 0, cwd=bare)
    check(
        code != 0 and result is None,
        "without the program's source: non-zero exit, no result",
    )

    print("selftest " + ("passed" if not failures else f"FAILED ({len(failures)})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
