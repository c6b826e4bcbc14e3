"""Explicit, picklable cache of offline characterizations.

The paper's controller and TALB policy both rely on offline
pre-processing: the flow-rate look-up table (Figure 5), the burst-floor
setting (the lowest setting that holds one fully loaded core below the
target), and the per-setting thermal weight sets
(Eq. 8). Historically these lived in module-level dictionaries inside
``repro.sim.engine``, which had two defects:

* the cache key omitted the pump model, so two systems with different
  pumps but otherwise equal configurations would share one
  characterized flow table;
* module globals cannot be handed to worker processes explicitly, so a
  process fan-out re-derived every characterization in every worker.

:class:`CharacterizationCache` fixes both: keys include the pump
signature, and the object holds only plain picklable values
(:class:`~repro.control.flow_table.FlowRateTable`, ints,
:class:`~repro.sched.weights.ThermalWeights`), so a pre-warmed cache
can be shipped to ``ProcessPoolExecutor`` workers by
:class:`repro.runner.BatchRunner`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable, Optional

from repro.control.flow_table import FlowRateTable
from repro.geometry.stack import CoolingKind
from repro.power.components import PowerModel
from repro.power.leakage import LeakageModel
from repro.registry import (
    WorkloadContext,
    controller_registry,
    policy_registry,
    workload_registry,
)
from repro.sched.weights import ThermalWeights
from repro.sim.config import CoolingMode, SimulationConfig
from repro.telemetry import metrics as _metrics
from repro.thermal.rc_network import clear_operator_store
from repro.thermal.solver import clear_lu_store
from repro.workload.generator import ThreadTrace

_CHAR_HITS = _metrics.counter("cache.characterization.hits")
_CHAR_MISSES = _metrics.counter("cache.characterization.misses")
"""Characterization-cache traffic, labeled by artifact kind
(``kind=table|floor|weights|trace``) — the telemetry view of whether a
campaign's workers received finished artifacts or re-derived them."""

_SYSTEM_HITS = _metrics.counter("cache.system.hits")
_SYSTEM_MISSES = _metrics.counter("cache.system.misses")
"""System-memo traffic: a miss is a full network assembly plus
factorization; warm campaigns should be nearly all hits."""

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.sim.system import ThermalSystem


_system_memo: "OrderedDict[tuple, tuple]" = OrderedDict()
_SYSTEM_MEMO_CAPACITY = 4
"""Process-local LRU of (ThermalSystem, PowerModel) pairs keyed by
their config identity. Simulators for the same system share assembled
networks and solvers — sweep/batch runs that revisit a configuration
skip the per-run assembly cost entirely. Safe to share: ThermalSystem
holds no per-run mutable state (pump state, controllers, and queues
live in the Simulator), and a rebuilt system is bit-identical to a
cached one (canonical assembly + deterministic factorization), so
results never depend on memo hits. The memoized systems' solvers are
what keep LUs alive in the content-addressed LU store
(:func:`repro.thermal.solver.factorize`), so the small capacity bounds
resident LU memory at paper-scale grids."""


def clear_system_memo() -> None:
    """Drop all memoized thermal systems and forget every stored operator
    and LU, so the next campaign assembles and factorizes afresh."""
    _system_memo.clear()
    clear_operator_store()
    clear_lu_store()


def _system_memo_key(config: SimulationConfig) -> tuple:
    """Identity of the thermal system a config constructs.

    Must cover every ``SimulationConfig`` field that
    :func:`system_for` feeds into ``ThermalSystem.__init__`` — shared
    by the memo, :func:`system_key` and :meth:`CharacterizationCache.warm`
    so they can never disagree about which configs share a system.
    """
    return (
        config.n_layers,
        config.cooling is CoolingMode.AIR,
        config.nx,
        config.ny,
        config.thermal_params,
        config.solver,
    )


def system_for(config: SimulationConfig) -> tuple["ThermalSystem", "PowerModel"]:
    """The thermal system and power model a config specifies.

    The single construction path shared by
    :class:`repro.sim.engine.Simulator` and
    :meth:`CharacterizationCache.warm`, so a pre-warmed cache is always
    derived from exactly the system a cold simulator would build.
    Memoized per config identity (see ``_system_memo``).
    """
    from repro.sim.system import ThermalSystem

    key = _system_memo_key(config)
    hit = _system_memo.get(key)
    if hit is not None:
        _system_memo.move_to_end(key)
        _SYSTEM_HITS.inc()
        return hit
    _SYSTEM_MISSES.inc()
    cooling = (
        CoolingKind.AIR if config.cooling is CoolingMode.AIR else CoolingKind.LIQUID
    )
    system = ThermalSystem(
        n_layers=config.n_layers,
        cooling=cooling,
        nx=config.nx,
        ny=config.ny,
        params=config.thermal_params,
        solver=config.solver,
    )
    pair = (system, PowerModel(system.stack, leakage=LeakageModel()))
    _system_memo[key] = pair
    while len(_system_memo) > _SYSTEM_MEMO_CAPACITY:
        _system_memo.popitem(last=False)
    return pair


def system_key(
    config: SimulationConfig, pump_signature: Optional[tuple] = None
) -> tuple:
    """Hashable identity of a characterized thermal system.

    The system's identity (:func:`_system_memo_key`, solver tier
    included, so a krylov-derived table never serves an exact run) plus
    the characterization target and guard, and the pump signature so
    systems that differ only in their pump (setting ladder, cavity
    split, derating) never share a cached flow table or weight set.
    """
    return _system_memo_key(config) + (
        config.target_temperature,
        config.characterization_guard,
        pump_signature,
    )


def _needs_flow_table(config: SimulationConfig) -> bool:
    """Whether a config's runs read the flow table and burst floor."""
    return config.cooling is CoolingMode.LIQUID_VARIABLE and (
        controller_registry().get(config.controller).trait("needs_flow_table")
    )


def _uses_weights(config: SimulationConfig) -> bool:
    """Whether a config's policy reads the TALB weight sets."""
    return policy_registry().get(config.policy).trait("uses_thermal_weights")


class CharacterizationCache:
    """Caches the offline pre-processing artifacts of the paper.

    All values are plain data (numpy arrays, dicts of floats, ints), so
    instances pickle cleanly; the sparse LU factorizations live in the
    process-wide LU store (:func:`repro.thermal.solver.factorize`) and
    are rebuilt per process.
    """

    def __init__(self) -> None:
        self.tables: dict[tuple, FlowRateTable] = {}
        self.floors: dict[tuple, int] = {}
        self.weight_sets: dict[tuple, ThermalWeights] = {}
        self.traces: dict[tuple, ThreadTrace] = {}
        # System identity -> (pump signature, start setting) of every
        # system a warm-up built: enough to key its artifacts later
        # without building it again.
        self._systems_seen: dict[tuple, tuple[Optional[tuple], int]] = {}

    # --- key helpers ---------------------------------------------------------

    @staticmethod
    def _key(config: SimulationConfig, system) -> tuple:
        pump = getattr(system, "pump", None)
        return system_key(config, pump.signature() if pump is not None else None)

    # --- cached characterizations -------------------------------------------

    def table(
        self,
        system: "ThermalSystem",
        power_model: "PowerModel",
        config: SimulationConfig,
    ) -> FlowRateTable:
        """The (cached) offline flow-table characterization (Figure 5)."""
        key = self._key(config, system)
        if key in self.tables:
            _CHAR_HITS.inc(kind="table")
        else:
            _CHAR_MISSES.inc(kind="table")
            self.tables[key] = FlowRateTable.characterize(
                steady_tmax_batch=lambda setting, utils: system.steady_tmax_batch(
                    power_model, utils, setting_index=setting
                ),
                n_settings=system.pump.n_settings,
                per_cavity_flows=system.pump.per_cavity_flows(),
                target=config.target_temperature - config.characterization_guard,
            )
        return self.tables[key]

    def floor(
        self,
        system: "ThermalSystem",
        power_model: "PowerModel",
        config: SimulationConfig,
    ) -> int:
        """Lowest setting that holds one fully loaded core below target.

        The characterization assumes uniform utilization; a single long
        thread concentrates its core's power and runs locally hotter,
        so the controller never drops below this floor.
        """
        key = self._key(config, system)
        if key in self.floors:
            _CHAR_HITS.inc(kind="floor")
        else:
            _CHAR_MISSES.inc(kind="floor")
            floor = system.pump.n_settings - 1
            for k in range(system.pump.n_settings):
                tmax = system.steady_tmax_concentrated(power_model, setting_index=k)
                if tmax <= config.target_temperature - 0.5:
                    floor = k
                    break
            self.floors[key] = floor
        return self.floors[key]

    def thermal_weights(
        self,
        system: "ThermalSystem",
        setting_index: int,
        config: SimulationConfig,
    ) -> ThermalWeights:
        """The (cached) pre-processed TALB weights for one cooling
        condition (pump setting, or -1 for air)."""
        key = self._key(config, system) + (
            setting_index,
            config.talb_weight_target,
        )
        if key in self.weight_sets:
            _CHAR_HITS.inc(kind="weights")
        else:
            _CHAR_MISSES.inc(kind="weights")
            self.weight_sets[key] = ThermalWeights.from_network(
                system.network(setting_index),
                target_temperature=config.talb_weight_target,
                # Probe with the non-core units at a representative power
                # so crossbar/L2 heating is reflected in the per-core
                # budgets.
                background_power=1.0,
            )
        return self.weight_sets[key]

    def _system_weights(
        self, system: "ThermalSystem", setting_index: int, config: SimulationConfig
    ) -> None:
        """Warm one weight set on the system's own steady LU.

        On the exact tier a miss first builds the system's own steady
        solver of the setting, so the probe solver
        :meth:`ThermalWeights.from_network` builds shares that LU
        through the store (bitwise the same weights) with the unit
        response solved on it, instead of factorizing a second copy.
        Krylov-tier systems answer steady solves by GMRES, so their
        weights keep a throwaway exact LU.
        """
        key = self._key(config, system) + (setting_index, config.talb_weight_target)
        if system.solver == "exact" and key not in self.weight_sets:
            system.steady_solver(setting_index)
        self.thermal_weights(system, setting_index, config)

    # --- workload traces ------------------------------------------------------

    @staticmethod
    def _trace_key(config: SimulationConfig) -> tuple:
        """Identity of the thread trace a config builds — every config
        field the workload context exposes to the model."""
        return (
            config.workload,
            config.workload_params,
            config.benchmark_name,
            config.n_cores,
            config.duration,
            config.seed,
        )

    @staticmethod
    def _build_trace(config: SimulationConfig) -> ThreadTrace:
        ctx = WorkloadContext(
            spec=config.spec,
            n_cores=config.n_cores,
            duration=config.duration,
            seed=config.seed,
            config=config,
        )
        model = workload_registry().create(
            config.workload, config.workload_params, ctx
        )
        return model.build_trace(ctx)

    def thread_trace(self, config: SimulationConfig) -> ThreadTrace:
        """The thread trace a config's workload model builds.

        Models declaring the ``cache_trace`` trait (file-backed ones
        like ``trace-replay``) are built once per identity and reused —
        a warmed cache parses the trace file in the parent and ships
        the finished trace to every worker. Everything else is rebuilt
        per call (deterministic, cheap, and a sweep of distinct seeds
        would only bloat the cache).
        """
        if not workload_registry().get(config.workload).trait("cache_trace"):
            return self._build_trace(config)
        key = self._trace_key(config)
        if key in self.traces:
            _CHAR_HITS.inc(kind="trace")
        else:
            _CHAR_MISSES.inc(kind="trace")
            self.traces[key] = self._build_trace(config)
        # Always a pristine copy: the scheduler mutates Thread objects,
        # so the cached original must never run.
        return self.traces[key].pristine()

    # --- warm-up and composition ----------------------------------------------

    def warm(self, configs: Iterable[SimulationConfig]) -> "CharacterizationCache":
        """Pre-derive every characterization a set of runs will need.

        Builds each unique thermal system once in the calling process
        (through the same :func:`system_for` path a cold
        :class:`~repro.sim.engine.Simulator` uses) and populates the
        flow table, burst floor, and thermal weight sets, so worker
        processes receive finished artifacts instead of re-deriving
        them. Which artifacts a config needs is read from its
        components' registry traits (``needs_flow_table`` on
        controllers, ``uses_thermal_weights`` on policies), so a
        user-registered component warms correctly without this method
        knowing it exists. A config whose artifacts are all cached
        builds no system (a batch re-warming what its sweep warmed).
        Returns ``self``.

        The steady LUs behind the artifacts are scaffolding: an
        exact-tier system leaves warm-up holding no steady solver.
        Wherever warm-up factorizes the start setting's steady LU (flow
        table or TALB weights), it also solves the ``Phi`` and ``phi``
        of that setting on it
        (:meth:`~repro.sim.system.ThermalSystem.unit_response`), which
        the runs' initial fields then read without an LU. The
        per-setting work of exact-tier variable-flow runs runs setting
        by setting in :meth:`_warm_settings`; the LIQUID_MAX and air
        weights share the start setting's LU with ``Phi``. Runs that
        need neither artifact solve their start setting's ``Phi`` when
        they start. Krylov-tier systems characterize config by config,
        each as it is built, and solve their initial fields by GMRES.
        """
        systems: dict[tuple, tuple["ThermalSystem", "PowerModel"]] = {}
        per_setting: dict[tuple, list[SimulationConfig]] = {}
        for config in configs:
            if self._already_warm(config):
                continue
            sys_id = _system_memo_key(config)
            if sys_id not in systems:
                systems[sys_id] = system_for(config)
            system, power_model = systems[sys_id]
            pump = system.pump
            self._systems_seen[sys_id] = (
                None if pump is None else pump.signature(), system.start_setting
            )
            needs_lut = _needs_flow_table(config)
            talb = _uses_weights(config)
            if config.cooling is CoolingMode.LIQUID_VARIABLE and system.solver == "exact":
                if needs_lut or talb:
                    per_setting.setdefault(sys_id, []).append(config)
            else:
                if needs_lut:
                    self.table(system, power_model, config)
                    self.floor(system, power_model, config)
                if talb:
                    if config.cooling is CoolingMode.LIQUID_VARIABLE:
                        for k in range(system.pump.n_settings):
                            self.thermal_weights(system, k, config)
                    else:
                        # The pump never leaves the top setting; the runs'
                        # initial fields read the Phi solved on the same LU.
                        start = system.start_setting
                        self._system_weights(system, start, config)
                        if system.solver == "exact":
                            system.unit_response(start)
                            system.release_steady(start)
            if self._caches_trace(config):
                self.thread_trace(config)
        self._warm_settings(
            [(*systems[sys_id], group) for sys_id, group in per_setting.items()]
        )
        return self

    @staticmethod
    def _caches_trace(config: SimulationConfig) -> bool:
        return workload_registry().get(config.workload).trait("cache_trace")

    def _already_warm(self, config: SimulationConfig) -> bool:
        """Whether every artifact a config's runs read is cached, judged
        from a system this cache saw warmed, without building it again."""
        seen = self._systems_seen.get(_system_memo_key(config))
        if seen is None:
            return False
        signature, start = seen
        key = system_key(config, signature)
        if _needs_flow_table(config) and (key not in self.tables or key not in self.floors):
            return False
        if _uses_weights(config):
            variable = config.cooling is CoolingMode.LIQUID_VARIABLE
            settings = range(start + 1) if variable else (start,)
            if any(key + (k, config.talb_weight_target) not in self.weight_sets for k in settings):
                return False
        return not self._caches_trace(config) or self._trace_key(config) in self.traces

    def _warm_settings(
        self, groups: list[tuple["ThermalSystem", "PowerModel", list[SimulationConfig]]]
    ) -> None:
        """The per-setting work of exact-tier variable-flow systems,
        setting-major.

        ``groups`` holds each system with its power model and the
        configs that read its flow table or weights. For each pump
        setting in ascending order, every system solves its unit
        response (at the start setting always: the runs' initial fields
        read its ``Phi``) and derives its TALB weights while that
        setting's steady LU is resident (systems that differ only in
        coolant inlet share it, and its ``R`` and ``Phi``, through the
        LU store); then every system drops its steady solver for that
        setting. The flow tables and burst floors are then read off the
        memoized responses. Only work still missing from the cache
        touches a solver, so a second warm-up of the same configs
        factorizes nothing.
        """
        n_settings = max((system.pump.n_settings for system, _, _ in groups), default=0)
        for k in range(n_settings):
            for system, _, configs in groups:
                if k >= system.pump.n_settings:
                    continue
                if k == system.start_setting:
                    system.unit_response(k)
                for config in configs:
                    key = self._key(config, system)
                    if _needs_flow_table(config) and (
                        key not in self.tables or key not in self.floors
                    ):
                        system.unit_response(k)
                    if _uses_weights(config):
                        self._system_weights(system, k, config)
            for system, _, _ in groups:
                system.release_steady(k)
        for system, power_model, configs in groups:
            for config in configs:
                if _needs_flow_table(config):
                    self.table(system, power_model, config)
                    self.floor(system, power_model, config)

    def clear(self) -> None:
        """Drop every cached characterization."""
        self.tables.clear()
        self.floors.clear()
        self.weight_sets.clear()
        self.traces.clear()
        self._systems_seen.clear()

    def __len__(self) -> int:
        return (
            len(self.tables)
            + len(self.floors)
            + len(self.weight_sets)
            + len(self.traces)
        )

    def stats(self) -> dict[str, int]:
        """Entry counts per artifact kind (for logging/tests)."""
        return {
            "tables": len(self.tables),
            "floors": len(self.floors),
            "weight_sets": len(self.weight_sets),
            "traces": len(self.traces),
        }
