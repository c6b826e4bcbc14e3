"""Policy/cooling comparison: a reduced Figure 6 + Figure 8 in one table.

Runs the paper's seven policy/cooling combinations on a hot and a light
workload and prints hot spots, energy (normalized to LB (Air) chip
energy), and relative throughput — the quickest way to see who wins
where.

The 14 runs are one :func:`repro.experiments.common.matrix_spec` sweep
executed by :func:`repro.experiments.common.run_labelled`: the
flow-table/weight characterizations are derived once in the parent,
then the runs fan out over worker processes (results are bit-identical
to serial execution).

Run:  python examples/policy_comparison.py [--workers N]
"""

import argparse
import os
import time

from repro.experiments import common
from repro.metrics.energy import EnergyBreakdown
from repro.metrics.thermal_metrics import (
    hotspot_frequency,
    spatial_gradient_frequency,
)

WORKLOADS = ("Web-high", "gzip")
DURATION = 12.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes for the 14-run batch (default: all cores)",
    )
    args = parser.parse_args()

    spec = common.matrix_spec(workloads=WORKLOADS, duration=DURATION)
    start = time.perf_counter()
    results = common.run_labelled(spec, workers=args.workers)
    wall_time = time.perf_counter() - start

    labels = common.spec_labels(spec)
    baseline_label = labels[0]
    base_chip = sum(
        results[(baseline_label, w)].chip_energy() for w in WORKLOADS
    ) / len(WORKLOADS)
    base_thr = sum(
        results[(baseline_label, w)].throughput() for w in WORKLOADS
    ) / len(WORKLOADS)
    baseline = EnergyBreakdown(chip=base_chip, pump=0.0)

    rows = []
    for label in labels:
        runs = [results[(label, w)] for w in WORKLOADS]
        chip = sum(r.chip_energy() for r in runs) / len(runs)
        pump = sum(r.pump_energy() for r in runs) / len(runs)
        thr = sum(r.throughput() for r in runs) / len(runs)
        norm = EnergyBreakdown(chip=chip, pump=pump).normalized(baseline)
        rows.append(
            {
                "policy": label,
                "hotspots_pct": sum(hotspot_frequency(r) for r in runs) / len(runs),
                "gradients_pct": sum(
                    spatial_gradient_frequency(r) for r in runs
                ) / len(runs),
                "energy_total": norm.chip + norm.pump,
                "performance": thr / base_thr,
            }
        )
    print(
        f"Workloads: {', '.join(WORKLOADS)} - {DURATION:.0f} s each "
        f"({len(results)} runs, {args.workers} worker(s), "
        f"{wall_time:.1f} s)\n"
    )
    print(common.format_rows(rows))
    print(
        "\nReading: liquid cooling removes the air system's hot spots;"
        "\nTALB (Var) keeps them at zero while cutting total energy; the"
        "\nmigration policy trades energy/throughput for reaction to heat."
    )


if __name__ == "__main__":
    main()
