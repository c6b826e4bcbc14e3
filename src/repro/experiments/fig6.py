"""Figure 6 — hot spots and energy for all policies (2-layer system).

"Figure 6 shows the average percentage of time spent above the
threshold across all the workloads, percentage of time spent above
threshold for the hottest workload, and energy for the 2-layered 3D
system. ... The energy consumption values are normalized with respect
to the load balancing policy on a system with air cooling."

One row per policy/cooling combination with:

* ``hotspots_avg_pct`` — mean % of samples above 85 degC across the
  eight workloads;
* ``hotspots_max_pct`` — the same for the hottest workload;
* ``energy_chip`` / ``energy_pump`` — normalized to LB (Air) chip
  energy (fan energy of the air system excluded, as in the paper).
"""

from __future__ import annotations

import numpy as np

from repro.experiments import common
from repro.metrics.energy import EnergyBreakdown
from repro.metrics.thermal_metrics import hotspot_frequency
from repro.sweep import SweepSpec


HELP = "hot spots and energy, all policies"
TITLE = "Figure 6 — hot spots and energy"


def sweep_spec(
    duration: float = common.DEFAULT_DURATION,
    workloads: tuple[str, ...] = common.ALL_WORKLOADS,
    seed: int = 0,
) -> SweepSpec:
    """Figure 6's 7-combo x 8-workload sweep as a declarative spec."""
    return common.matrix_spec(
        combos=common.POLICY_MATRIX,
        workloads=workloads,
        duration=duration,
        dpm=False,
        seed=seed,
        name="fig6",
    )


def rows(results: dict, workloads: tuple[str, ...]) -> list[dict]:
    """Figure 6's bars from ``(label, workload)``-keyed results."""
    labels = common.spec_labels(sweep_spec())  # labels[0] is LB (Air)
    baseline_chip = np.mean(
        [results[(labels[0], w)].chip_energy() for w in workloads]
    )
    baseline = EnergyBreakdown(chip=float(baseline_chip), pump=0.0)

    out = []
    for label in labels:
        hotspots = [hotspot_frequency(results[(label, w)]) for w in workloads]
        chip = np.mean([results[(label, w)].chip_energy() for w in workloads])
        pump = np.mean([results[(label, w)].pump_energy() for w in workloads])
        normalized = EnergyBreakdown(chip=float(chip), pump=float(pump)).normalized(
            baseline
        )
        out.append(
            {
                "policy": label,
                "hotspots_avg_pct": float(np.mean(hotspots)),
                "hotspots_max_pct": float(np.max(hotspots)),
                "energy_chip": normalized.chip,
                "energy_pump": normalized.pump,
                "energy_total": normalized.chip + normalized.pump,
            }
        )
    return out
