"""Figure 5 — flow rate required to cool a given T_max below 80 degC.

For the 2- and 4-layer systems: sweep workload intensity, report the
maximum temperature the workload produces at the lowest pump setting
(the x axis, read as the workload's heat at the lowest setting), the
minimum sufficient *discrete* setting and its per-cavity flow (the
staircase), and the minimum sufficient *continuous* per-cavity flow
(the paper's triangular/circular data points), found by bisection over
the flow-parameterized thermal model.
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.constants import CONTROL, MICROCHANNEL
from repro.geometry.stack import CoolingKind
from repro.power.components import PowerModel
from repro.sim.system import ThermalSystem
from repro.thermal.solver import SteadyStateSolver


def _steady_tmax_at_flow(
    system: ThermalSystem, model: PowerModel, utilization: float, flow: float
) -> float:
    """Self-consistent steady T_max at an arbitrary continuous flow."""
    n_cores = len(system.core_names)
    temps = system.steady_field(
        model,
        [utilization] * n_cores,
        [False] * n_cores,
        memory_intensity=0.8,
        solver=SteadyStateSolver(system.network_for_flow(flow)),
    )
    return system.grid.max_unit_temperature(temps)


def continuous_required_flow(
    system: ThermalSystem,
    model: PowerModel,
    utilization: float,
    target: float = CONTROL.target_temperature,
    iters: int = 24,
) -> float:
    """Minimum continuous per-cavity flow holding the target, m^3/s.

    Returns ``nan`` when even the physical maximum (Table I's 1 l/min
    per cavity) is insufficient, and the minimum bound when any flow
    suffices.
    """
    lo = MICROCHANNEL.flow_rate_min * 0.5
    hi = MICROCHANNEL.flow_rate_max
    if _steady_tmax_at_flow(system, model, utilization, hi) > target:
        return float("nan")
    if _steady_tmax_at_flow(system, model, utilization, lo) <= target:
        return lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if _steady_tmax_at_flow(system, model, utilization, mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def run(
    n_layers: int = 2,
    utilizations: tuple[float, ...] = tuple(np.linspace(0.0, 0.93, 7)),
    include_continuous: bool = True,
) -> list[dict]:
    """Regenerate Figure 5's series for one stack."""
    system = ThermalSystem(n_layers, CoolingKind.LIQUID)
    model = PowerModel(system.stack)
    pump = system.pump
    rows = []
    for u in utilizations:
        tmax_per_setting = [
            system.steady_tmax(model, float(u), setting_index=k, memory_intensity=0.8)
            for k in range(pump.n_settings)
        ]
        required = next(
            (
                k
                for k, t in enumerate(tmax_per_setting)
                if t <= CONTROL.target_temperature
            ),
            pump.n_settings - 1,
        )
        row = {
            "n_layers": n_layers,
            "utilization": float(u),
            "tmax_at_lowest": tmax_per_setting[0],
            "required_setting": required,
            "discrete_flow_mlmin": units.to_ml_per_minute(
                pump.setting(required).per_cavity_flow
            ),
            "holds_target": tmax_per_setting[required] <= CONTROL.target_temperature,
        }
        if include_continuous:
            flow = continuous_required_flow(system, model, float(u))
            row["continuous_flow_mlmin"] = (
                units.to_ml_per_minute(flow) if np.isfinite(flow) else float("nan")
            )
        rows.append(row)
    return rows
