"""Figure 8 — performance and energy across cooling configurations.

"Figure 8 compares the policies in terms of energy and performance,
both for the air and liquid cooling systems." Energy bars (pump + chip)
are normalized to LB (Air) chip energy; performance is throughput
normalized to LB (Air). The paper's observations to reproduce: thread
migration loses throughput under air cooling (temperature-triggered
migrations), liquid cooling at maximum flow removes that overhead, and
TALB (Var) saves energy "without any effect on the performance".
"""

from __future__ import annotations

import numpy as np

from repro.experiments import common
from repro.metrics.energy import EnergyBreakdown
from repro.sim.config import CoolingMode, PolicyKind
from repro.sweep import SweepSpec


HELP = "performance and energy"
TITLE = "Figure 8 — performance and energy"


def sweep_spec(
    duration: float = common.DEFAULT_DURATION,
    workloads: tuple[str, ...] = common.ALL_WORKLOADS,
    seed: int = 0,
) -> SweepSpec:
    """Figure 8's reduced 5-combo x 8-workload comparison sweep, in the
    paper's bar order."""
    return common.matrix_spec(
        combos=(
            (PolicyKind.LB, CoolingMode.AIR),
            (PolicyKind.MIGRATION, CoolingMode.AIR),
            (PolicyKind.TALB, CoolingMode.AIR),
            (PolicyKind.LB, CoolingMode.LIQUID_MAX),
            (PolicyKind.TALB, CoolingMode.LIQUID_VARIABLE),
        ),
        workloads=workloads,
        duration=duration,
        dpm=False,
        seed=seed,
        name="fig8",
    )


def rows(results: dict, workloads: tuple[str, ...]) -> list[dict]:
    """Figure 8's bars from ``(label, workload)``-keyed results (any
    superset of its combos, e.g. Figure 6's sweep)."""
    labels = common.spec_labels(sweep_spec())  # labels[0] is LB (Air)
    baseline_chip = float(
        np.mean([results[(labels[0], w)].chip_energy() for w in workloads])
    )
    baseline_throughput = float(
        np.mean([results[(labels[0], w)].throughput() for w in workloads])
    )
    baseline = EnergyBreakdown(chip=baseline_chip, pump=0.0)

    out = []
    for label in labels:
        chip = float(np.mean([results[(label, w)].chip_energy() for w in workloads]))
        pump = float(np.mean([results[(label, w)].pump_energy() for w in workloads]))
        throughput = float(
            np.mean([results[(label, w)].throughput() for w in workloads])
        )
        normalized = EnergyBreakdown(chip=chip, pump=pump).normalized(baseline)
        out.append(
            {
                "policy": label,
                "energy_chip": normalized.chip,
                "energy_pump": normalized.pump,
                "energy_total": normalized.chip + normalized.pump,
                "performance": throughput / baseline_throughput,
            }
        )
    return out
