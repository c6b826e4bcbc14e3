"""Batch simulation runner with process fan-out.

The paper's evaluation is inherently a batch problem — Table II
workloads x policies x cooling modes x 2/4-layer stacks — and every
design-space sweep built on top of it (hysteresis, inlet-temperature,
stack-depth studies) multiplies that matrix further. This module is
the one execution engine those batches run on:

* :class:`BatchRunner` takes a list of
  :class:`~repro.sim.config.SimulationConfig`, pre-warms one
  :class:`~repro.sim.cache.CharacterizationCache` in the parent
  process, and fans the runs out over a
  :class:`concurrent.futures.ProcessPoolExecutor`;
* :meth:`BatchRunner.iter_runs` streams full results (the experiments
  layer, :func:`repro.experiments.common.run_spec`) and
  :meth:`BatchRunner.iter_reduced` streams worker-side reduced
  payloads (the sweep and distributed layers); both yield in
  submission order, bit-identical to serial execution: every run is
  fully determined by its config (the trace is generated from
  ``config.seed`` inside the worker) and the characterizations are
  finished artifacts shipped to the workers, never re-derived.

Per-run seeding and exports belong to the sweep layer
(:class:`repro.sweep.SweepSpec` ``reseed``, :mod:`repro.io.sweep`).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim import engine
from repro.sim.cache import CharacterizationCache, _system_memo_key
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace
from repro.thermal.rc_network import ThermalParams


def thermal_signature(config: SimulationConfig) -> tuple:
    """The thermal-kernel identity of a config.

    The system-memo key (layers, cooling kind, grid, thermal params,
    solver tier — see :func:`repro.sim.cache._system_memo_key`) plus
    the sampling interval (the transient LU depends on dt). Configs
    with equal signatures step through the same assembled networks
    and LUs; nothing else about them
    (policy, controller, workload, seed, duration) reaches the numeric
    kernel.
    """
    return _system_memo_key(config) + (config.sampling_interval,)


def structural_signature(config: SimulationConfig) -> tuple:
    """:func:`thermal_signature` with the thermal-parameter values
    projected out: everything that decides the sparsity structure of
    the system matrices, but not their values. Configs that agree here
    but differ in ``thermal_params`` build different networks of the
    same shape — the neighborhood a ``solver="krylov"`` run
    preconditions across.
    """
    return tuple(
        part
        for part in _system_memo_key(config)
        if not isinstance(part, ThermalParams)
    ) + (config.sampling_interval,)


def signature_groups(configs: Sequence[SimulationConfig]) -> list[list[int]]:
    """Config indices grouped by execution key, in first-appearance order.

    The key is :func:`thermal_signature`, or :func:`structural_signature`
    for ``solver="krylov"`` configs. Every index lands in exactly one
    group and members keep submission order, so concatenating the
    groups gives a stable sort of the batch by key: runs sharing a
    system execute back to back (the system memo holds only a few) and
    krylov design points differing only in ``thermal_params`` execute
    adjacently, reusing each other's preconditioner LUs.
    """
    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        if config.solver == "krylov":
            key = structural_signature(config)
        else:
            key = thermal_signature(config)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def balanced_slices(members: list[int], parts: int) -> list[list[int]]:
    """Split ``members`` into up to ``parts`` contiguous slices whose
    sizes differ by at most one and concatenate back to ``members``."""
    parts = max(1, min(parts, len(members)))
    base, extra = divmod(len(members), parts)
    out, at = [], 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        out.append(members[at:at + size])
        at += size
    return out


@dataclass
class BatchRun:
    """One completed run of a batch.

    Attributes
    ----------
    index:
        Position in the submitted config list.
    config:
        The run's configuration.
    result:
        The simulation output.
    elapsed:
        Wall-clock seconds the run took in its process (excludes
        queueing and transport).
    """

    index: int
    config: SimulationConfig
    result: SimulationResult
    elapsed: float


@dataclass
class ReducedRun:
    """One completed run, collapsed to its reducer payload.

    What :meth:`BatchRunner.iter_reduced` yields instead of a
    :class:`BatchRun`: the full :class:`SimulationResult` (megabytes of
    time series) is reduced *in the worker process* and only the
    payload crosses the pool boundary — the transport the sweep and
    distributed layers use, since their folds never need the series.
    """

    index: int
    config: SimulationConfig
    payload: Any
    elapsed: float


#: A worker-side reducer: ``(tag, config, result) -> payload``. Must be
#: picklable (a module-level function or a class instance) and pure —
#: it runs on whatever process executed the run.
RunReducer = Callable[[Any, SimulationConfig, Any], Any]


def _execute_one(index: int, config: SimulationConfig) -> BatchRun:
    """Run one configured simulation (worker side and serial path)."""
    start = time.perf_counter()
    with _trace.span("run", index=index, policy=config.policy, solver=config.solver):
        result = engine.Simulator(config).run()
    return BatchRun(
        index=index,
        config=config,
        result=result,
        elapsed=time.perf_counter() - start,
    )


def _execute_group(
    task: tuple[list[tuple], Optional[RunReducer]],
) -> list:
    """Run one task group in order; ``task`` is ``(group, reducer)``
    with ``group`` a list of ``(index, config, tag)``. With a
    reducer, results collapse to :class:`ReducedRun` before leaving
    the process."""
    group, reducer = task
    items = []
    for index, config, tag in group:
        run = _execute_one(index, config)
        _metrics.counter("runner.runs").inc()
        if reducer is not None:
            run = ReducedRun(
                index=run.index,
                config=run.config,
                payload=reducer(tag, run.config, run.result),
                elapsed=run.elapsed,
            )
        items.append(run)
    return items


def _execute_group_remote(task: tuple) -> tuple[list, dict]:
    """Pool entrypoint: run a group and ship its metric delta back.

    ``task`` is ``(group, reducer, fields)``: ``fields`` are the warmed
    initial fields the group's runs read
    (:meth:`~repro.sim.cache.CharacterizationCache.fields_for`), kept
    in the worker's cache before the runs. Workers snapshot the
    telemetry registry around the group so only
    the group's *own* activity travels back (under ``fork`` the child
    inherits the parent's counter values; the diff cancels them). The
    parent merges every delta, so campaign counters aggregate across
    the pool exactly as they do serially.
    """
    group, reducer, fields = task
    engine.default_cache().keep_fields(fields)
    before = _metrics.snapshot()
    items = _execute_group((group, reducer))
    return items, _metrics.snapshot_diff(before, _metrics.snapshot())


def _worker_init(
    cache: CharacterizationCache, trace_context: Optional[dict] = None
) -> None:
    """Install the parent's pre-warmed cache, less its initial fields
    (each task brings those it reads), as the worker's default.

    Redundant under the ``fork`` start method (the child inherits the
    parent's module state) but required for ``spawn``/``forkserver``.
    Also activates the parent's trace context, so worker-side spans
    feed the worker's ``span.*`` timers (merged back per group).
    """
    engine.set_default_cache(cache)
    _trace.install_trace_context(trace_context)


class BatchRunner:
    """Runs a list of simulation configs, serially or across processes.

    Parameters
    ----------
    configs:
        The runs to execute, in order.
    max_workers:
        ``None`` or ``<= 1`` executes serially in-process; otherwise a
        :class:`~concurrent.futures.ProcessPoolExecutor` with that many
        workers is used (capped at the batch size).
    cache:
        The characterization cache to warm and ship to workers;
        defaults to the process-wide engine cache so batches share
        characterizations with prior in-process runs. Every batch
        pre-derives its characterizations in the parent before fanning
        out, so the artifacts are computed once instead of once per
        worker (warming an already-warm cache is all hits). Each worker
        receives the cache less its initial fields, and each task the
        fields of its own runs.

    Runs execute in a stable sort by :func:`signature_groups`, so runs
    sharing a thermal system reuse its networks and LUs back to back
    (the warmed cache holds their initial fields); results are emitted in
    submission order either way. In parallel mode each signature group
    is split into balanced contiguous slices, one pool task each, so a
    single large group still fills every worker.
    """

    def __init__(
        self,
        configs: Sequence[SimulationConfig],
        max_workers: Optional[int] = None,
        cache: Optional[CharacterizationCache] = None,
    ) -> None:
        if not configs:
            raise ConfigurationError("a batch needs at least one config")
        self.configs = list(configs)
        self.cache = cache if cache is not None else engine.default_cache()
        if max_workers is None:
            self.max_workers = 1
        elif max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        else:
            self.max_workers = min(max_workers, len(self.configs))

    def _plan_groups(self) -> list[list[int]]:
        """The task groups this batch executes, as index lists, in
        execution order: one run per task serially, balanced slices of
        each :func:`signature_groups` group in parallel mode."""
        groups = signature_groups(self.configs)
        if self.max_workers <= 1:
            return [[i] for members in groups for i in members]
        return [
            part
            for members in groups
            for part in balanced_slices(members, self.max_workers)
        ]

    def _iter_grouped(
        self,
        reducer: Optional[RunReducer],
        tags: Optional[Sequence],
    ) -> Iterator:
        """Shared engine behind :meth:`iter_runs` / :meth:`iter_reduced`.

        Executes the planned groups and re-emits their members in
        global submission order: a group's results are buffered until
        every earlier index has landed, so downstream folds stay
        deterministic however runs were grouped or scheduled.
        """
        self.cache.warm(self.configs)
        groups = [
            [
                (i, self.configs[i], None if tags is None else tags[i])
                for i in members
            ]
            for members in self._plan_groups()
        ]
        tasks = [(group, reducer) for group in groups]
        buffered: dict[int, Any] = {}
        emit_next = 0

        def ready():
            nonlocal emit_next
            while emit_next in buffered:
                yield buffered.pop(emit_next)
                emit_next += 1

        if self.max_workers <= 1:
            # Serial path: run in-process against the (now warm) cache.
            previous = engine.default_cache()
            engine.set_default_cache(self.cache)
            try:
                for task in tasks:
                    for item in _execute_group(task):
                        buffered[item.index] = item
                    yield from ready()
            finally:
                engine.set_default_cache(previous)
        else:
            pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_worker_init,
                initargs=(self.cache.without_fields(), _trace.trace_context()),
            )
            remote = [
                (group, reducer, self.cache.fields_for(c for _, c, _ in group))
                for group, reducer in tasks
            ]
            try:
                # pool.map yields groups in submission order as they land.
                for items, delta in pool.map(
                    _execute_group_remote, remote, chunksize=1
                ):
                    _metrics.merge(delta)
                    for item in items:
                        buffered[item.index] = item
                    yield from ready()
            finally:
                pool.shutdown(wait=True, cancel_futures=True)

    def iter_runs(self) -> Iterator[BatchRun]:
        """Stream completed runs in submission order.

        The path for callers that need full results in memory
        (:func:`repro.experiments.common.run_spec`): each
        :class:`BatchRun` is yielded as soon as it (and everything
        before it) has finished,
        so a consumer holds O(signature group) results instead of
        O(batch). Yield order is always submission order — downstream
        folds (aggregators, journals) are therefore deterministic
        regardless of worker scheduling. Closing the generator early
        cancels the unconsumed remainder of a parallel batch.
        """
        return self._iter_grouped(None, None)

    def iter_reduced(
        self, reducer: RunReducer, tags: Optional[Sequence] = None
    ) -> Iterator[ReducedRun]:
        """Stream runs collapsed to reducer payloads, in submission order.

        ``reducer(tag, config, result)`` executes on whatever process
        ran the simulation, so a parallel batch ships only its payload
        (an export row, fold payloads — kilobytes) back to the parent
        instead of pickling full result arrays. ``tags`` optionally
        aligns one opaque value per config (e.g. a sweep point's
        ``(index, key)``) for the reducer's benefit. Identical math to
        :meth:`iter_runs` + reducing in the parent — the reducer must
        be pure, and fold payloads are defined to be state-independent.
        """
        if tags is not None and len(tags) != len(self.configs):
            raise ConfigurationError(
                f"got {len(tags)} tags for {len(self.configs)} configs"
            )
        return self._iter_grouped(reducer, tags)
