"""Regenerate the reference rows the benchmark checks every run against.

    python3 perfbench/make_references.py [--size full] [--instances 32] \
        [--out perfbench/references.json]

One row per (workload, run): the checked fields of every run any
instance ``0 .. instances-1`` can execute. Campaigns run point-major
(every seed of one design point back to back) so each thermal system is
built once. The krylov workload's rows come from the exact solver tier,
so the benchmark checks krylov results against exact ones.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def reference_rows(workload: str, size: str, instances: int) -> dict:
    from repro import SweepRunner

    if workloads.is_cold(workload):
        seeds = range(instances)
    else:
        seeds = range(instances + workloads.WARM_REPS)
    spec = workloads.campaign_spec(workload, size, seeds, solver="exact")
    result = SweepRunner(spec, aggregators=()).run()
    return {
        workloads.row_key(row["key"]): workloads.checked_row(row)
        for row in result.rows
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    parser.add_argument("--instances", type=int, default=32)
    parser.add_argument("--out", default=str(HERE / "references.json"))
    args = parser.parse_args(argv)

    rows = {}
    for workload in workloads.WORKLOADS:
        rows[workload] = reference_rows(workload, args.size, args.instances)
        print(f"{workload}: {len(rows[workload])} reference rows", flush=True)
    store = {"instances": args.instances, "sizes": {args.size: rows}}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(store, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
