"""Ablations of the controller's design choices (extension study).

Each design decision below is isolated by running it against its
alternative:

* **Proactive vs reactive** — the paper argues a reactive policy
  over-/under-cools because the pump transition (250-300 ms) exceeds
  the stack's thermal time constant (<100 ms). We run the controller
  with the ARMA forecast disabled (decisions on the current T_max) and
  compare target violations and switching activity.
* **Hysteresis** — the 2 degC down-switch guard exists "to avoid rapid
  oscillations"; we run with it removed and count setting switches.
* **Grid resolution** — the paper uses 100 um cells; we quantify what
  the default coarse grid changes on the steady-state answer.
"""

from __future__ import annotations

from repro.constants import CONTROL
from repro.experiments import common
from repro.geometry.stack import CoolingKind
from repro.power.components import PowerModel
from repro.power.leakage import LeakageModel
from repro.sim.config import ControllerKind, CoolingMode, PolicyKind, SimulationConfig
from repro.sim.system import ThermalSystem
from repro.sweep import SweepSpec


#: The controller ablation variants: (label, forecast_enabled, hysteresis).
ABLATION_VARIANTS: tuple[tuple[str, bool, float], ...] = (
    ("proactive+hysteresis (paper)", True, CONTROL.hysteresis),
    ("reactive+hysteresis", False, CONTROL.hysteresis),
    ("proactive, no hysteresis", True, 0.0),
    ("reactive, no hysteresis", False, 0.0),
)


def controller_ablation_spec(
    workload: str = "Web-med", duration: float = 20.0, seed: int = 0
) -> SweepSpec:
    """The four ablated controller variants as lock-step (zip) axes."""
    return SweepSpec(
        base=SimulationConfig(
            benchmark_name=workload,
            policy=PolicyKind.TALB,
            cooling=CoolingMode.LIQUID_VARIABLE,
            duration=duration,
            seed=seed,
        ),
        zip_axes={
            "forecast_enabled": [v[1] for v in ABLATION_VARIANTS],
            "hysteresis": [v[2] for v in ABLATION_VARIANTS],
        },
        name="controller-ablation",
    )


def run_controller_ablation(
    workload: str = "Web-med", duration: float = 20.0, seed: int = 0
) -> list[dict]:
    """Compare the full controller against its ablated variants."""
    spec = controller_ablation_spec(workload=workload, duration=duration, seed=seed)
    rows = []
    for (label, _, _), (_, result) in zip(
        ABLATION_VARIANTS, common.run_spec(spec)
    ):
        rows.append(
            {
                "variant": label,
                "peak_temperature": result.peak_temperature(),
                "pct_above_target": 100.0
                * result.time_above(CONTROL.target_temperature),
                "setting_switches": common.setting_switches(result.flow_setting),
                "pump_energy": result.pump_energy(),
                "mean_setting": result.mean_flow_setting(),
            }
        )
    return rows


def run_controller_comparison(
    workloads: tuple[str, ...] = ("Web-med", "gzip"),
    duration: float = 20.0,
    seed: int = 0,
) -> list[dict]:
    """The paper's controller vs its prior-work predecessor ([6]).

    Related work: "[6] ... investigates the benefits of variable flow
    using a policy to increment/decrement the flow rate based on
    temperature measurements, without considering energy consumption."
    This sweep runs both on the same workloads: the LUT controller
    should match or beat the stepwise ladder on pump energy while
    keeping the temperature guarantee the reactive ladder cannot give.
    """
    labels = {
        "lut": "LUT+ARMA (paper)",
        "stepwise": "stepwise (prior work [6])",
    }
    spec = SweepSpec(
        base=SimulationConfig(
            policy=PolicyKind.TALB,
            cooling=CoolingMode.LIQUID_VARIABLE,
            duration=duration,
            seed=seed,
        ),
        grid={
            "benchmark_name": list(workloads),
            "controller": [ControllerKind.LUT, ControllerKind.STEPWISE],
        },
        name="controller-comparison",
    )
    rows = []
    for point, result in common.run_spec(spec):
        rows.append(
            {
                "workload": point.config.benchmark_name,
                "controller": labels[point.config.controller],
                "peak_temperature": result.peak_temperature(),
                "pct_above_target": 100.0
                * result.time_above(CONTROL.target_temperature),
                "pump_energy": result.pump_energy(),
                "mean_setting": result.mean_flow_setting(),
                "setting_switches": common.setting_switches(result.flow_setting),
            }
        )
    return rows


def run_grid_resolution_ablation(
    resolutions: tuple[int, ...] = (8, 16, 24, 32),
    utilization: float = 0.9,
) -> list[dict]:
    """Steady-state T_max convergence with grid resolution."""
    rows = []
    for n in resolutions:
        system = ThermalSystem(2, CoolingKind.LIQUID, nx=n, ny=n)
        model = PowerModel(system.stack, leakage=LeakageModel())
        tmax_min = system.steady_tmax(model, utilization, setting_index=0)
        tmax_max = system.steady_tmax(
            model, utilization, setting_index=system.pump.n_settings - 1
        )
        rows.append(
            {
                "grid": f"{n}x{n}",
                "nodes": system.grid.n_nodes,
                "tmax_at_min_flow": tmax_min,
                "tmax_at_max_flow": tmax_max,
            }
        )
    return rows


def run_weight_sensitivity(
    workload: str = "Web-med", duration: float = 20.0, seed: int = 0
) -> list[dict]:
    """TALB weight target sensitivity (the paper balances at 75 degC)."""
    spec = SweepSpec(
        base=SimulationConfig(
            benchmark_name=workload,
            policy=PolicyKind.TALB,
            cooling=CoolingMode.LIQUID_MAX,
            duration=duration,
            seed=seed,
        ),
        grid={"talb_weight_target": [70.0, 75.0, 80.0]},
        name="talb-weight-sensitivity",
    )
    rows = []
    for point, result in common.run_spec(spec):
        spread = result.unit_temperatures.max(axis=1) - result.unit_temperatures.min(
            axis=1
        )
        rows.append(
            {
                "weight_target": point.config.talb_weight_target,
                "mean_spatial_spread": float(spread.mean()),
                "peak_temperature": result.peak_temperature(),
            }
        )
    return rows
