"""repro — Energy-efficient variable-flow liquid cooling in 3D stacks.

A from-scratch reproduction of Coskun, Atienza, Rosing, Brunschwiler,
Michel, "Energy-Efficient Variable-Flow Liquid Cooling in 3D Stacked
Architectures" (DATE 2010): the interlayer-microchannel thermal model,
the Laing DDC pump, the ARMA+SPRT proactive flow-rate controller, the
temperature-aware weighted load balancer (TALB), and the full Section V
evaluation harness.

Quickstart::

    from repro import SimulationConfig, simulate, CoolingMode, PolicyKind

    config = SimulationConfig(
        benchmark_name="Web-med",
        policy=PolicyKind.TALB,
        cooling=CoolingMode.LIQUID_VARIABLE,
        duration=20.0,
    )
    result = simulate(config)
    print(result.peak_temperature(), result.pump_energy())
"""

from repro.constants import CONTROL, MICROCHANNEL, POWER, STACK
from repro.control import (
    ArmaModel,
    FlowController,
    FlowRateController,
    FlowRateTable,
    PersistenceForecaster,
    PidFlowController,
    SprtDetector,
    StepwiseFlowController,
    TemperatureForecaster,
)
from repro.errors import (
    ConfigurationError,
    ControlError,
    GeometryError,
    ModelError,
    ReproError,
    SchedulingError,
    SolverError,
    WorkloadError,
)
from repro.geometry import CoolingKind, Floorplan, Stack3D, build_stack
from repro.metrics import (
    EnergyBreakdown,
    hotspot_frequency,
    spatial_gradient_frequency,
    thermal_cycle_frequency,
)
from repro.microchannel import WATER, ChannelGeometry, Coolant, MicrochannelModel
from repro.power import DpmPolicy, LeakageModel, PowerModel
from repro.pump import PumpModel, PumpState, laing_ddc
from repro.registry import (
    ComponentEntry,
    ControllerContext,
    ForecasterContext,
    FrozenParams,
    ParamSpec,
    PolicyContext,
    Registry,
    controller_registry,
    forecaster_registry,
    policy_registry,
    register_controller,
    register_forecaster,
    register_policy,
)
from repro.sched import (
    CoreQueues,
    LoadBalancer,
    ReactiveMigration,
    RoundRobinPolicy,
    SchedulerPolicy,
    ThermalWeights,
    WeightedLoadBalancer,
)
from repro.dist import (
    CampaignPlan,
    MergeResult,
    WorkerReport,
    campaign_status,
    merge_campaign,
    plan_campaign,
    run_worker,
)
from repro.runner import BatchRunner
from repro.sweep import (
    HistogramAggregator,
    QuantileAggregator,
    SweepPoint,
    SweepResult,
    SweepRunner,
    SweepSpec,
)
from repro.sim import (
    CharacterizationCache,
    ControllerKind,
    CoolingMode,
    IntervalObserver,
    IntervalState,
    PolicyKind,
    SimulationConfig,
    SimulationResult,
    Simulator,
    ThermalSystem,
    simulate,
)
from repro.thermal import (
    SteadyStateSolver,
    ThermalGrid,
    ThermalParams,
    TransientSolver,
    build_network,
)
from repro.workload import TABLE_II, BenchmarkSpec, WorkloadGenerator, benchmark

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "MICROCHANNEL",
    "STACK",
    "POWER",
    "CONTROL",
    "ReproError",
    "ConfigurationError",
    "GeometryError",
    "ModelError",
    "SolverError",
    "ControlError",
    "WorkloadError",
    "SchedulingError",
    "Floorplan",
    "Stack3D",
    "CoolingKind",
    "build_stack",
    "Coolant",
    "WATER",
    "ChannelGeometry",
    "MicrochannelModel",
    "ThermalGrid",
    "ThermalParams",
    "build_network",
    "SteadyStateSolver",
    "TransientSolver",
    "PumpModel",
    "PumpState",
    "laing_ddc",
    "PowerModel",
    "LeakageModel",
    "DpmPolicy",
    "BenchmarkSpec",
    "TABLE_II",
    "benchmark",
    "WorkloadGenerator",
    "CoreQueues",
    "LoadBalancer",
    "ReactiveMigration",
    "RoundRobinPolicy",
    "SchedulerPolicy",
    "WeightedLoadBalancer",
    "ThermalWeights",
    "ArmaModel",
    "SprtDetector",
    "TemperatureForecaster",
    "PersistenceForecaster",
    "FlowRateTable",
    "FlowController",
    "FlowRateController",
    "StepwiseFlowController",
    "PidFlowController",
    "Registry",
    "ComponentEntry",
    "ParamSpec",
    "FrozenParams",
    "PolicyContext",
    "ControllerContext",
    "ForecasterContext",
    "policy_registry",
    "controller_registry",
    "forecaster_registry",
    "register_policy",
    "register_controller",
    "register_forecaster",
    "SimulationConfig",
    "CharacterizationCache",
    "BatchRunner",
    "SweepSpec",
    "SweepPoint",
    "SweepRunner",
    "SweepResult",
    "HistogramAggregator",
    "QuantileAggregator",
    "plan_campaign",
    "CampaignPlan",
    "run_worker",
    "WorkerReport",
    "merge_campaign",
    "MergeResult",
    "campaign_status",
    "PolicyKind",
    "CoolingMode",
    "ControllerKind",
    "Simulator",
    "simulate",
    "IntervalState",
    "IntervalObserver",
    "SimulationResult",
    "ThermalSystem",
    "EnergyBreakdown",
    "hotspot_frequency",
    "spatial_gradient_frequency",
    "thermal_cycle_frequency",
]
