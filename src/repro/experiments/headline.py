"""The headline claims: cooling/total energy savings of variable flow.

"Our method guarantees operating below the target temperature while
reducing the cooling energy by up to 30 %, and the overall energy by up
to 12 % in comparison to using the highest coolant flow rate. ... For
low utilization workloads, such as gzip and MPlayer, the total energy
savings reach 12 %, and the reduction in cooling energy exceeds 30 %."

One row per workload: TALB (Var) vs TALB (Max) pump/total energy, the
savings, and whether the 80 degC target held throughout the run.
"""

from __future__ import annotations

from repro.constants import CONTROL
from repro.experiments import common
from repro.metrics.energy import (
    EnergyBreakdown,
    cooling_energy_savings,
    total_energy_savings,
)
from repro.sim.config import CoolingMode, PolicyKind


HELP = "energy savings vs maximum flow"


def sweep_spec(
    duration: float = common.DEFAULT_DURATION,
    workloads: tuple[str, ...] = common.ALL_WORKLOADS,
    seed: int = 0,
):
    """The headline Var-vs-Max savings sweep as a declarative spec: the
    controller vs worst-case flow."""
    return common.matrix_spec(
        combos=(
            (PolicyKind.TALB, CoolingMode.LIQUID_VARIABLE),
            (PolicyKind.TALB, CoolingMode.LIQUID_MAX),
        ),
        workloads=workloads,
        duration=duration,
        seed=seed,
        name="headline",
    )


def rows(results: dict, workloads: tuple[str, ...]) -> list[dict]:
    """The per-workload savings from ``(label, workload)``-keyed results
    (any superset of the pair, e.g. Figure 6's sweep)."""
    var_label, max_label = common.spec_labels(sweep_spec())
    out = []
    for workload in workloads:
        variable = results[(var_label, workload)]
        max_flow = results[(max_label, workload)]
        e_var = EnergyBreakdown.from_result(variable)
        e_max = EnergyBreakdown.from_result(max_flow)
        out.append(
            {
                "workload": workload,
                "cooling_savings_pct": 100.0 * cooling_energy_savings(e_var, e_max),
                "total_savings_pct": 100.0 * total_energy_savings(e_var, e_max),
                "peak_temperature": variable.peak_temperature(),
                "target_held": variable.peak_temperature()
                <= CONTROL.target_temperature + 0.5,
                "mean_setting": variable.mean_flow_setting(),
            }
        )
    return out
