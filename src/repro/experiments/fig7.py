"""Figure 7 — thermal variations with DPM enabled.

"Figure 7 shows the average and maximum frequency of spatial and
temporal variations in temperature ... In the experiments in Figure 7,
we run DPM in addition to the thermal management policy." Spatial
gradients are counted when the unit-to-unit spread exceeds 15 degC;
thermal cycles when a per-core swing exceeds 20 degC (sliding window).
"""

from __future__ import annotations

import numpy as np

from repro.experiments import common
from repro.metrics.thermal_metrics import (
    spatial_gradient_frequency,
    thermal_cycle_frequency,
)
from repro.sweep import SweepSpec


HELP = "thermal variations (DPM on)"


def sweep_spec(
    duration: float = common.DEFAULT_DURATION,
    workloads: tuple[str, ...] = common.ALL_WORKLOADS,
    seed: int = 0,
) -> SweepSpec:
    """Figure 7's sweep (the Figure 6 matrix with DPM enabled)."""
    return common.matrix_spec(
        combos=common.POLICY_MATRIX,
        workloads=workloads,
        duration=duration,
        dpm=True,
        seed=seed,
        name="fig7",
    )


def rows(results: dict, workloads: tuple[str, ...]) -> list[dict]:
    """Figure 7's bars from ``(label, workload)``-keyed results."""
    out = []
    for label in common.spec_labels(sweep_spec()):
        gradients = [
            spatial_gradient_frequency(results[(label, w)]) for w in workloads
        ]
        cycles = [thermal_cycle_frequency(results[(label, w)]) for w in workloads]
        out.append(
            {
                "policy": label,
                "spatial_gradients_pct": float(np.mean(gradients)),
                "thermal_cycles_pct": float(np.mean(cycles)),
            }
        )
    return out
