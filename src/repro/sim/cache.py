"""Explicit, picklable cache of offline characterizations.

The paper's controller and TALB policy both rely on offline
pre-processing: the flow-rate look-up table (Figure 5), the burst-floor
setting (the lowest setting that holds one fully loaded core below the
target), and the per-setting thermal weight sets
(Eq. 8). Every run also starts from a steady field (the paper
initializes all simulations "with steady state temperature values"),
one more artifact of the same kind. Historically these lived in
module-level dictionaries inside ``repro.sim.engine``, which could not
be handed to worker processes explicitly, so a process fan-out
re-derived every characterization in every worker.

:class:`CharacterizationCache` keys every artifact by the config alone
(:func:`system_key`: the system identity, the characterization target
and guard; no config field chooses the pump or the air package) and
holds only plain picklable values
(:class:`~repro.control.flow_table.FlowRateTable`, ints,
:class:`~repro.sched.weights.ThermalWeights`, read-only initial
fields), so a pre-warmed cache can be shipped to
``ProcessPoolExecutor`` workers by :class:`repro.runner.BatchRunner`.
"""

from __future__ import annotations

import copy
import dataclasses
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.control.flow_table import FlowRateTable
from repro.geometry.stack import CoolingKind
from repro.power.components import PowerModel
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
from repro.thermal.solver import SteadyStateSolver, clear_lu_store, medoid
from repro.workload.generator import ThreadTrace

_CHAR_HITS = _metrics.counter("cache.characterization.hits")
_CHAR_MISSES = _metrics.counter("cache.characterization.misses")
"""Characterization-cache traffic, labeled by artifact kind
(``kind=table|floor|weights|init|trace|preconditioner``) — the telemetry
view of whether a campaign's workers received finished artifacts or
re-derived them. ``kind=preconditioner`` counts warm-up's seeding of a
krylov design sweep's medoid LU (:meth:`CharacterizationCache.warm`): a
miss when warm-up factorizes it, a hit when the preconditioner pool
already held that point."""

_SYSTEM_HITS = _metrics.counter("cache.system.hits")
_SYSTEM_MISSES = _metrics.counter("cache.system.misses")
"""System-memo traffic: a miss is a full network assembly plus
factorization; warm campaigns should be nearly all hits."""

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.sim.system import ThermalSystem


_system_memo: "OrderedDict[tuple, ThermalSystem]" = OrderedDict()
_SYSTEM_MEMO_CAPACITY = 4
"""Process-local LRU of thermal systems keyed by their config identity
(power changes no network, so no model rides along: :func:`power_model_for`).
Simulators for the same system share assembled networks and solvers —
sweep/batch runs that revisit a configuration skip the per-run
assembly cost entirely. Safe to share: ThermalSystem
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


def system_for(config: SimulationConfig) -> "ThermalSystem":
    """The thermal system a config specifies.

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
    _system_memo[key] = system
    while len(_system_memo) > _SYSTEM_MEMO_CAPACITY:
        _system_memo.popitem(last=False)
    return system


def power_model_for(config: SimulationConfig, system: "ThermalSystem") -> PowerModel:
    """The power model a config runs with on its system: the one place
    that decides it, for :class:`repro.sim.engine.Simulator` and the
    flow table and burst floor alike, so a cached artifact is computed
    only from what its key (:func:`system_key`) covers."""
    return PowerModel(system.stack)


def system_key(config: SimulationConfig) -> tuple:
    """Hashable identity of a characterized thermal system.

    The system's identity (:func:`_system_memo_key`, solver tier
    included, so a krylov-derived table never serves an exact run) plus
    the characterization target and guard. Every system a config builds
    has the same pump and package, so the config alone keys its flow
    table, burst floor and weight sets.
    """
    return _system_memo_key(config) + (
        config.target_temperature,
        config.characterization_guard,
    )


def _needs_flow_table(config: SimulationConfig) -> bool:
    """Whether a config's runs read the flow table and burst floor."""
    return config.cooling is CoolingMode.LIQUID_VARIABLE and (
        controller_registry().get(config.controller).trait("needs_flow_table")
    )


def _uses_weights(config: SimulationConfig) -> bool:
    """Whether a config's policy reads the TALB weight sets."""
    return policy_registry().get(config.policy).trait("uses_thermal_weights")


def _settings(config: SimulationConfig, system: "ThermalSystem") -> "range | tuple[int]":
    """The cooling conditions whose artifacts a config's runs read:
    every pump setting for a flow table or weight sets under variable
    flow, else the start setting alone (the top setting, or -1 for
    air), whose initial field every run reads."""
    if config.cooling is CoolingMode.LIQUID_VARIABLE and (
        _needs_flow_table(config) or _uses_weights(config)
    ):
        return range(system.pump.n_settings)
    return (system.start_setting,)


def _field_on_exact_lu(config: SimulationConfig) -> bool:
    """Whether a krylov config's initial field is solved on the exact LU
    of its start setting, the LU its TALB weights factorize anyway,
    rather than by GMRES (a krylov config without weights has no exact
    LU to use)."""
    return config.solver != "exact" and _uses_weights(config)


_INITIAL_FIELD_BYTES = 32 << 20
"""Budget of one cache's initial fields. Past it the least recently
used field is evicted and recomputed by the next run that reads it
(bitwise the same), so a long-lived process or a large design sweep
holds at most this much: about 70 fields at 107x107, thousands at
16x16."""


def _model_value(power_model: PowerModel) -> tuple:
    """A power model's value: its stack's name and its parameter
    fields, so equal-valued instances key the same initial field."""
    return tuple(
        power_model.stack.name if f.name == "stack" else getattr(power_model, f.name)
        for f in dataclasses.fields(power_model)
    )


class CharacterizationCache:
    """Caches the offline pre-processing artifacts of the paper.

    All values are plain data (numpy arrays, dicts of floats, ints), so
    instances pickle cleanly; the sparse LU factorizations live in the
    process-wide LU store (:func:`repro.thermal.solver.factorize`) and
    are rebuilt per process. The initial fields outlive the systems they
    were solved on, so a run whose system the memo evicted after
    warm-up still starts without a steady solve; they are the one
    artifact of size ``n_nodes``, so they alone are bounded
    (:data:`_INITIAL_FIELD_BYTES`, least recently used first out).
    """

    def __init__(self) -> None:
        self.tables: dict[tuple, FlowRateTable] = {}
        self.floors: dict[tuple, int] = {}
        self.weight_sets: dict[tuple, ThermalWeights] = {}
        self.initial_fields: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self.traces: dict[tuple, ThreadTrace] = {}
        # Every item (:meth:`_reads`) a warm-up covered, so a later
        # warm-up of configs that read nothing more builds no system.
        self._warmed: set[tuple] = set()
        self._field_bytes = 0
        self._evictions = 0

    # --- cached characterizations -------------------------------------------

    def table(self, system: "ThermalSystem", config: SimulationConfig) -> FlowRateTable:
        """The (cached) offline flow-table characterization (Figure 5)."""
        key = system_key(config)
        if key in self.tables:
            _CHAR_HITS.inc(kind="table")
        else:
            _CHAR_MISSES.inc(kind="table")
            power_model = power_model_for(config, system)
            self.tables[key] = FlowRateTable.characterize(
                steady_tmax_batch=lambda setting, utils: system.steady_tmax_batch(
                    power_model, utils, setting_index=setting
                ),
                n_settings=system.pump.n_settings,
                per_cavity_flows=system.pump.per_cavity_flows(),
                target=config.target_temperature - config.characterization_guard,
            )
        return self.tables[key]

    def floor(self, system: "ThermalSystem", config: SimulationConfig) -> int:
        """Lowest setting that holds one fully loaded core below target.

        The characterization assumes uniform utilization; a single long
        thread concentrates its core's power and runs locally hotter,
        so the controller never drops below this floor.
        """
        key = system_key(config)
        if key in self.floors:
            _CHAR_HITS.inc(kind="floor")
        else:
            _CHAR_MISSES.inc(kind="floor")
            power_model = power_model_for(config, system)
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
        key = system_key(config) + (
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

    def _init_key(self, system: "ThermalSystem", config: SimulationConfig) -> tuple:
        return _system_memo_key(config) + _model_value(power_model_for(config, system)) + (
            config.spec.utilization,
            system.start_setting,
            _field_on_exact_lu(config),
        )

    def initial_field(self, system: "ThermalSystem", config: SimulationConfig) -> np.ndarray:
        """The (cached) steady field a config's runs start from: the
        paper initializes all simulations "with steady state
        temperature values".

        Keyed by the system (:func:`_system_memo_key`; the target and
        guard do not reach it) plus the power model's value
        (:func:`power_model_for`), the benchmark's utilization, the
        start setting and how it is solved. A miss computes it with
        :meth:`~repro.sim.system.ThermalSystem.initial_temperatures`:
        on the system's own tier, except that a krylov config reading
        TALB weights holds an exact steady solver of its start setting
        while that setting's weights derive (a store hit for them, so
        no extra LU) and iterates on it with direct solves. A warmed
        and a cold run of a config therefore start from the same field
        bitwise (warm-up never solves a krylov config without weights).
        The field is read-only, so no run can corrupt another's start.
        """
        key = self._init_key(system, config)
        field = self.initial_fields.get(key)
        if field is not None:
            self.initial_fields.move_to_end(key)
            _CHAR_HITS.inc(kind="init")
            return field
        _CHAR_MISSES.inc(kind="init")
        model = power_model_for(config, system)
        start = system.start_setting
        utilization = config.spec.utilization
        if _field_on_exact_lu(config):
            held = SteadyStateSolver(system.network(start))
            self.thermal_weights(system, start, config)
            field = system.initial_temperatures(model, utilization, start, solver=held)
        else:
            field = system.initial_temperatures(model, utilization, start)
        self.keep_fields({key: field})
        return field

    def keep_fields(self, fields: dict[tuple, np.ndarray]) -> None:
        """Store initial fields (a pool task's share, or one just
        solved), read-only (unpickling makes an array writeable again),
        evicting the least recently used past the budget."""
        for key, field in fields.items():
            old = self.initial_fields.pop(key, None)
            if old is not None:
                self._field_bytes -= old.nbytes
            field.flags.writeable = False
            self.initial_fields[key] = field
            self._field_bytes += field.nbytes
        while self._field_bytes > _INITIAL_FIELD_BYTES and len(self.initial_fields) > 1:
            _, old = self.initial_fields.popitem(last=False)
            self._field_bytes -= old.nbytes
            self._evictions += 1
            self._forget_warmed_fields()

    def _forget_warmed_fields(self) -> None:
        """After an eviction no warm-up's field reads are known covered,
        so a later warm-up re-checks (and re-solves) them."""
        self._warmed = {item for item in self._warmed if item[0] != "init"}

    def fields_for(self, configs: Iterable[SimulationConfig]) -> dict[tuple, np.ndarray]:
        """The cached initial fields ``configs`` read: what a pool task
        running them needs of this cache beyond :meth:`without_fields`."""
        fields = {}
        for config in configs:
            key = self._init_key(system_for(config), config)
            if key in self.initial_fields:
                fields[key] = self.initial_fields[key]
        return fields

    def without_fields(self) -> "CharacterizationCache":
        """A cache sharing every artifact of this one but its initial
        fields: what pool workers receive (each task brings its own
        fields, :meth:`fields_for`), and a reference run that solves its
        own field."""
        shell = copy.copy(self)
        shell.initial_fields = OrderedDict()
        shell._field_bytes = 0
        shell._forget_warmed_fields()
        return shell

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
        flow table, burst floor (on :func:`power_model_for`), and
        thermal weight sets, so worker
        processes receive finished artifacts instead of re-deriving
        them. Which artifacts a config needs is read from its
        components' registry traits (``needs_flow_table`` on
        controllers, ``uses_thermal_weights`` on policies), so a
        user-registered component warms correctly without this method
        knowing it exists. A config whose reads (:meth:`_reads`) an
        earlier warm-up covered builds no system (a batch re-warming
        what its sweep warmed, or a config reading a subset of what
        another warmed). Returns ``self``.

        The steady LUs behind the artifacts are scaffolding: an
        exact-tier system leaves warm-up holding no steady solver.
        Every exact-tier config, at any cooling, goes through one
        setting-major pass (:meth:`_warm_settings`), which also solves
        each config's initial field (:meth:`initial_field`) on its start
        setting's LU, so the runs start with no LU and no steady solve.
        Krylov-tier systems characterize config by config, each as it is
        built. One that reads TALB weights solves its initial field
        first, on an exact steady solver of its start setting held while
        that setting's weights derive (they factorize that LU anyway):
        six direct solves. Any other krylov config solves its field by
        GMRES in its first run. A warm-up that evicts a field (past
        :data:`_INITIAL_FIELD_BYTES`) leaves its runs to recompute it.
        Last, once every steady LU of warm-up is released, each krylov
        design sweep's medoid is factorized into the preconditioner pool
        (:meth:`_seed_preconditioners`), so no run of the sweep
        factorizes.
        """
        configs = list(configs)
        systems: dict[tuple, "ThermalSystem"] = {}
        exact: dict[tuple, list[SimulationConfig]] = {}
        warmed: set[tuple] = set()
        evictions = self._evictions
        for config in configs:
            reads = self._reads(config)
            if all(item in self._warmed or item in warmed for item in reads):
                continue
            warmed.update(reads)
            sys_id = _system_memo_key(config)
            if sys_id not in systems:
                systems[sys_id] = system_for(config)
            system = systems[sys_id]
            if config.solver == "exact":
                exact.setdefault(sys_id, []).append(config)
            else:
                if _needs_flow_table(config):
                    self.table(system, config)
                    self.floor(system, config)
                if _uses_weights(config):
                    self.initial_field(system, config)
                    for k in _settings(config, system):
                        self.thermal_weights(system, k, config)
            if self._caches_trace(config):
                self.thread_trace(config)
        self._warm_settings(
            [(systems[sys_id], group) for sys_id, group in exact.items()]
        )
        self._seed_preconditioners(configs, systems)
        self._warmed |= warmed
        if self._evictions != evictions:
            self._forget_warmed_fields()
        return self

    def _seed_preconditioners(
        self, configs: list[SimulationConfig], systems: dict[tuple, "ThermalSystem"]
    ) -> None:
        """Factorize each krylov design sweep's medoid into the
        preconditioner pool, after the last steady LU of warm-up is gone.

        Krylov configs are grouped by pool structure
        (:func:`repro.runner.batch.structural_signature`: everything but
        the thermal-parameter values, the sampling interval ``dt``
        included, and the cooling kind that fixes the start setting).
        Each group's medoid (:func:`~repro.thermal.solver.medoid`) gets
        its start setting's time-step LU, and, for the configs whose runs
        solve their initial field by GMRES (those without TALB weights),
        its steady ``G``'s LU too, on the system warm-up built for it
        (:meth:`~repro.sim.system.ThermalSystem.seed_preconditioner`). A
        lone design point is not seeded. Each seeding is recorded in
        ``_warmed``, so a later warm-up of the same sweep builds no
        system and factorizes nothing (if the pool dropped the seed
        since, the first run factorizes its own LU, as unwarmed runs do).
        """
        from repro.runner.batch import structural_signature

        groups: dict[tuple, list[SimulationConfig]] = {}
        for config in configs:
            if config.solver == "exact":
                continue
            signature = structural_signature(config)
            groups.setdefault(signature + ("dt",), []).append(config)
            if not _uses_weights(config):
                groups.setdefault(signature + ("steady",), []).append(config)
        for key, members in groups.items():
            centre = medoid([c.thermal_params for c in members])
            if centre is None:
                continue
            config = members[centre]
            item = ("seed", key, config.thermal_params)
            if item in self._warmed:
                continue
            system = systems.get(_system_memo_key(config)) or system_for(config)
            dt = config.sampling_interval if key[-1] == "dt" else None
            if system.seed_preconditioner(dt):
                _CHAR_MISSES.inc(kind="preconditioner")
            else:
                _CHAR_HITS.inc(kind="preconditioner")
            self._warmed.add(item)

    @staticmethod
    def _caches_trace(config: SimulationConfig) -> bool:
        return workload_registry().get(config.workload).trait("cache_trace")

    @classmethod
    def _reads(cls, config: SimulationConfig) -> tuple:
        """What a config's runs read, each item keyed by the config
        alone: its system, its flow table and burst floor, its weight
        sets (the start setting's, and under variable flow every
        setting's), its initial field where warm-up solves it (every
        exact config, and krylov configs with weights) and its cached
        trace. A config is warm when an earlier warm-up covered every
        item."""
        key = system_key(config)
        reads = [("system", _system_memo_key(config))]
        if _needs_flow_table(config):
            reads.append(("table", key))
        if _uses_weights(config):
            reads.append(("weights", key, config.talb_weight_target, "start"))
            if config.cooling is CoolingMode.LIQUID_VARIABLE:
                reads.append(("weights", key, config.talb_weight_target, "all"))
        if config.solver == "exact" or _uses_weights(config):
            reads.append((
                "init", _system_memo_key(config), config.spec.utilization,
                _field_on_exact_lu(config),
            ))
        if cls._caches_trace(config):
            reads.append(("trace", cls._trace_key(config)))
        return tuple(reads)

    def _warm_settings(
        self, groups: list[tuple["ThermalSystem", list[SimulationConfig]]]
    ) -> None:
        """The per-setting work of exact-tier systems, setting-major.

        ``groups`` holds each system with its configs. For each cooling
        condition some config reads (:func:`_settings`), in ascending
        order (air's -1 first), every system reading it solves the
        initial fields of its configs (at the start setting: ``Phi p +
        phi`` on its unit response) and its unit response and TALB
        weights while that setting's steady LU is resident. The systems
        that share that LU drop their steady solvers once the last of
        them is done with the setting, so an inlet sweep (one matrix
        digest) shares one LU, and its ``R`` and ``Phi``, through the LU
        store, while a design sweep (a digest per system) never holds two
        steady LUs at once. The probe solver
        :meth:`~repro.sched.weights.ThermalWeights.from_network` builds
        for a missing weight set shares it too: the system builds its own
        steady solver first, so the weights are bitwise the same and no
        second copy is factorized. The flow tables and burst floors are
        then read off the memoized responses. Only work still missing
        from the cache touches a solver.
        """
        settings = sorted(
            {k for system, configs in groups for c in configs for k in _settings(c, system)}
        )
        for k in settings:
            # The systems reading setting k, grouped by the steady matrix
            # (so the LU) they share, in first-seen order.
            sharing: dict[str, list] = {}
            for system, configs in groups:
                reading = [c for c in configs if k in _settings(c, system)]
                if reading:
                    digest = system.network(k).operator.steady_matrix().digest
                    sharing.setdefault(digest, []).append((system, reading))
            for readers in sharing.values():
                for system, configs in readers:
                    start = k == system.start_setting
                    if start and any(
                        self._init_key(system, c) not in self.initial_fields for c in configs
                    ):
                        # The fields' unit response first, so an initial
                        # field costs only its own loop and matvec.
                        system.unit_response(k)
                    for config in configs:
                        key = system_key(config)
                        if start:
                            self.initial_field(system, config)
                        if _needs_flow_table(config) and (
                            key not in self.tables or key not in self.floors
                        ):
                            system.unit_response(k)
                        if _uses_weights(config):
                            if key + (k, config.talb_weight_target) not in self.weight_sets:
                                system.steady_solver(k)
                            self.thermal_weights(system, k, config)
                for system, _ in readers:
                    system.release_steady(k)
        for system, configs in groups:
            for config in configs:
                if _needs_flow_table(config):
                    self.table(system, config)
                    self.floor(system, config)

    def clear(self) -> None:
        """Drop every cached characterization."""
        self.tables.clear()
        self.floors.clear()
        self.weight_sets.clear()
        self.initial_fields.clear()
        self.traces.clear()
        self._warmed.clear()
        self._field_bytes = 0

    def __len__(self) -> int:
        return (
            len(self.tables)
            + len(self.floors)
            + len(self.weight_sets)
            + len(self.initial_fields)
            + len(self.traces)
        )

    def stats(self) -> dict[str, int]:
        """Entry counts per artifact kind (for logging/tests)."""
        return {
            "tables": len(self.tables),
            "floors": len(self.floors),
            "weight_sets": len(self.weight_sets),
            "initial_fields": len(self.initial_fields),
            "traces": len(self.traces),
        }
