"""The 4-layer (16-core) system evaluation (Section V).

"Our simulations are carried out with 2-, and 4-layered stack
architectures" and "the workload statistics collected on the
UltraSPARC T1 are replicated for the 4-layered 16-core system." The
published figures show the 2-layer system; this module runs the same
policy sweep on the 4-layer stack, where the pump's flow is split over
five cavities (625 ml/min per cavity at the maximum setting) while the
stacked power doubles — the regime where Figure 5's 4-layer staircase
reaches its ceiling.
"""

from __future__ import annotations

import numpy as np

from repro.constants import CONTROL
from repro.experiments import common
from repro.metrics.energy import EnergyBreakdown
from repro.metrics.thermal_metrics import hotspot_frequency
from repro.sim.config import CoolingMode, PolicyKind


HELP = "policy sweep on the 4-layer stack (light workloads)"
TITLE = "4-layer system (light workloads)"


def sweep_spec(
    duration: float = common.DEFAULT_DURATION,
    workloads: tuple[str, ...] = ("Database", "gzip", "MPlayer"),
    seed: int = 0,
):
    """The 4-layer liquid-policy sweep as a declarative spec.

    The liquid combos only: the air-cooled 4-layer stack is far beyond
    its thermal envelope at full load. Medium/high-utilization
    workloads exceed the 80 degC target on the 4-layer stack even at
    the maximum pump setting (625 ml/min per cavity against doubled
    stacked power; see ``examples/stack_design_sweep.py``), so the
    sweep uses the light rows of Table II where the controller has room
    to work.
    """
    return common.matrix_spec(
        combos=(
            (PolicyKind.LB, CoolingMode.LIQUID_MAX),
            (PolicyKind.TALB, CoolingMode.LIQUID_MAX),
            (PolicyKind.TALB, CoolingMode.LIQUID_VARIABLE),
        ),
        workloads=workloads,
        duration=duration,
        n_layers=4,
        seed=seed,
        name="fourlayer",
    )


def rows(results: dict, workloads: tuple[str, ...]) -> list[dict]:
    """The 4-layer rows from ``(label, workload)``-keyed results."""
    labels = common.spec_labels(sweep_spec())  # labels[0] is LB (Max)
    baseline_chip = float(
        np.mean([results[(labels[0], w)].chip_energy() for w in workloads])
    )
    baseline = EnergyBreakdown(chip=baseline_chip, pump=0.0)

    out = []
    for label in labels:
        runs = [results[(label, w)] for w in workloads]
        chip = float(np.mean([r.chip_energy() for r in runs]))
        pump = float(np.mean([r.pump_energy() for r in runs]))
        normalized = EnergyBreakdown(chip=chip, pump=pump).normalized(baseline)
        out.append(
            {
                "policy": label,
                "hotspots_avg_pct": float(
                    np.mean([hotspot_frequency(r) for r in runs])
                ),
                "peak_temperature": float(
                    np.max([r.peak_temperature() for r in runs])
                ),
                "target_held": bool(
                    np.all(
                        [
                            r.peak_temperature()
                            <= CONTROL.target_temperature + 0.5
                            for r in runs
                        ]
                    )
                ),
                "energy_chip": normalized.chip,
                "energy_pump": normalized.pump,
            }
        )
    return out
