"""Parameter-sensitivity sweeps (extension study).

The calibration (:mod:`repro.sim.calibration`) fixes two scales and a
60 degC inlet;
these sweeps show how the headline behaviour moves when those
assumptions move — the robustness analysis a reviewer would ask for.
"""

from __future__ import annotations

from repro.experiments import common
from repro.geometry.stack import CoolingKind
from repro.power.components import PowerModel
from repro.power.leakage import LeakageModel
from repro.sim.config import CoolingMode, PolicyKind, SimulationConfig
from repro.sim.system import ThermalSystem
from repro.sweep import SweepSpec
from repro.thermal.rc_network import ThermalParams


def inlet_temperature_sweep(
    inlets: tuple[float, ...] = (45.0, 52.5, 60.0, 67.5),
    utilization: float = 0.9,
) -> list[dict]:
    """Steady T_max vs coolant inlet temperature (hot-water cooling).

    The paper never states its inlet temperature; this sweep shows the
    operating band simply translates with it (the flow-rate *ordering*
    is inlet-independent), which is why the choice of 60 degC affects
    absolute temperatures but none of the comparative results.
    """
    rows = []
    for inlet in inlets:
        params = ThermalParams(inlet_temperature=inlet)
        system = ThermalSystem(2, CoolingKind.LIQUID, params=params)
        model = PowerModel(system.stack, leakage=LeakageModel())
        tmax_min = system.steady_tmax(model, utilization, setting_index=0)
        tmax_max = system.steady_tmax(
            model, utilization, setting_index=system.pump.n_settings - 1
        )
        rows.append(
            {
                "inlet_degC": inlet,
                "tmax_at_min_flow": tmax_min,
                "tmax_at_max_flow": tmax_max,
                "band_width": tmax_min - tmax_max,
            }
        )
    return rows


def controller_family_spec(
    workload: str = "Database",
    duration: float = 15.0,
    seed: int = 0,
) -> SweepSpec:
    """Compare the registered flow-controller family on one workload.

    The registry turns controller variants into sweep points instead of
    code forks: the paper's LUT+ARMA controller, the [6] stepwise
    ladder, and the PID regulator at two proportional gains — the
    controller-dynamics axis Islam & Abdel-Motaleb explore — all run
    under identical scheduling and cooling. Built in as ``controllers``
    for ``repro sweep run`` / ``repro dist plan``.
    """
    return SweepSpec(
        base=SimulationConfig(
            benchmark_name=workload,
            policy=PolicyKind.TALB,
            cooling=CoolingMode.LIQUID_VARIABLE,
            duration=duration,
            seed=seed,
        ),
        points=[
            {"controller": "lut"},
            {"controller": "stepwise"},
            {"controller": "pid"},
            {"controller": "pid", "controller_params": {"kp": 0.75, "kd": 1.0}},
        ],
        name="controllers",
    )


def workload_family_spec(
    benchmark: str = "Web-med",
    duration: float = 15.0,
    seed: int = 0,
) -> SweepSpec:
    """Compare Var vs Max cooling across the workload-model family.

    The paper evaluates its controller only on stationary Table II
    statistics; this campaign replays the same comparison through every
    built-in workload model — the synthetic generator, a recorded
    utilization trace, a day/night diurnal profile, and a correlated
    flash-crowd — so the Var-vs-Max energy savings can be read as a
    function of workload dynamics rather than a single operating point.
    Built in as ``workloads`` for ``repro sweep run`` / ``repro dist
    plan``.
    """
    return SweepSpec(
        base=SimulationConfig(
            benchmark_name=benchmark,
            policy=PolicyKind.TALB,
            cooling=CoolingMode.LIQUID_VARIABLE,
            duration=duration,
            seed=seed,
        ),
        points=[
            {"workload": "table2"},
            {"workload": "trace-replay", "workload_params": {"loop": True}},
            {"workload": "diurnal"},
            {"workload": "flash-crowd", "workload_params": {"burst_rate": 0.2}},
        ],
        grid={"cooling": [CoolingMode.LIQUID_VARIABLE, CoolingMode.LIQUID_MAX]},
        name="workloads",
    )


def facility_headline_spec(
    workload: str = "Web-med",
    duration: float = 15.0,
    seed: int = 0,
) -> SweepSpec:
    """The production-scale facility campaign: 2,250 racks x 400 kW.

    One chip is co-simulated against its share of a closed CDU ->
    chiller -> cooling-tower plant and the plant flows are scaled to a
    2,250-rack room at 400 kW per rack (the aggregation is exact
    because every chip share sees the same boundary conditions, and
    PUE/WUE are scale-invariant). The campaign crosses climate
    (wet-bulb temperature) with the supply setpoint — the paper's
    hot-water-cooling argument as a sweep: a 60 degC setpoint holds
    the economizer active across every climate, while chilled-water
    setpoints buy nothing but chiller energy. Built in as ``facility``
    for ``repro sweep run`` / ``repro dist plan``; the dotted
    ``facility_params.*`` axes shard byte-identically like any other.
    """
    return SweepSpec(
        base=SimulationConfig(
            benchmark_name=workload,
            policy=PolicyKind.TALB,
            cooling=CoolingMode.LIQUID_VARIABLE,
            duration=duration,
            seed=seed,
            facility="closed-loop",
            # ~29 W per 2-layer chip -> ~13,800 chips per 400 kW rack.
            facility_params={"racks": 2250, "chips_per_rack": 13800},
        ),
        grid={
            "facility_params.wet_bulb_c": [10.0, 18.0, 26.0],
            "facility_params.supply_setpoint_c": [20.0, 45.0, 60.0],
        },
        name="facility",
    )


def hysteresis_spec(
    values: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0),
    workload: str = "Database",
    duration: float = 15.0,
    seed: int = 0,
) -> SweepSpec:
    """The hysteresis-margin campaign as a declarative spec.

    Shared by :func:`hysteresis_sweep` and the campaign CLIs
    (``repro sweep run --spec hysteresis``, ``repro dist plan --spec
    hysteresis``) so the direct and distributed paths expand the exact
    same runs.
    """
    return SweepSpec(
        base=SimulationConfig(
            benchmark_name=workload,
            policy=PolicyKind.TALB,
            cooling=CoolingMode.LIQUID_VARIABLE,
            duration=duration,
            seed=seed,
        ),
        grid={"hysteresis": list(values)},
        name="hysteresis",
    )


def hysteresis_sweep(
    values: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0),
    workload: str = "Database",
    duration: float = 15.0,
    seed: int = 0,
) -> list[dict]:
    """Controller behaviour vs the down-switch hysteresis margin.

    The paper picks 2 degC "to avoid rapid oscillations"; the sweep
    shows the trade: less hysteresis means more switching, more
    hysteresis means higher average flow (more pump energy).
    """
    spec = hysteresis_spec(
        values=values, workload=workload, duration=duration, seed=seed
    )
    rows = []
    for point, result in common.run_spec(spec):
        rows.append(
            {
                "hysteresis_K": point.config.hysteresis,
                "setting_switches": common.setting_switches(result.flow_setting),
                "mean_setting": result.mean_flow_setting(),
                "pump_energy": result.pump_energy(),
                "peak_temperature": result.peak_temperature(),
            }
        )
    return rows


def idle_power_sweep(
    values: tuple[float, ...] = (0.5, 1.0, 1.5),
    utilization: float = 0.2,
) -> list[dict]:
    """Sensitivity to the undocumented idle-core power (an assumption).

    The paper does not state idle power; we assume 1 W. The sweep shows
    the low-utilization T_max (and hence the light-workload pump
    setting) shifts by only a few kelvin per 0.5 W, so the headline
    ranking is insensitive to the assumption.
    """
    rows = []
    for idle in values:
        system = ThermalSystem(2, CoolingKind.LIQUID)
        model = PowerModel(
            system.stack, leakage=LeakageModel(), idle_power=idle
        )
        rows.append(
            {
                "idle_power_w": idle,
                "tmax_low_util_min_flow": system.steady_tmax(
                    model, utilization, setting_index=0
                ),
                "tmax_low_util_max_flow": system.steady_tmax(
                    model, utilization, setting_index=4
                ),
            }
        )
    return rows
