"""Checkpointed streaming execution of a :class:`~repro.sweep.spec.SweepSpec`.

:class:`SweepRunner` expands the spec lazily, fans the configs out
through :meth:`repro.runner.BatchRunner.iter_runs`, and folds each
completed :class:`~repro.sim.results.SimulationResult` — strictly in
run-index order — into incremental aggregators, the export row stream,
and an on-disk journal. Memory stays O(aggregate + in-flight results),
never O(runs).

Checkpoint format (JSON lines, append-only)
-------------------------------------------

::

    {"kind": "header", "format": "repro-sweep-checkpoint", "version": 1,
     "name": ..., "fingerprint": ..., "n_runs": N, "aggregators": [...]}
    {"kind": "run", "index": 0, "key": ..., "row": {...}, "elapsed_s": ...}
    {"kind": "snapshot", "folded": 1, "state": {"scalar": ..., "cells": ...}}
    {"kind": "run", "index": 1, ...}
    ...

Each folded run appends a ``run`` line (its deterministic export row)
and, every ``snapshot_every`` folds, a ``snapshot`` line with the full
aggregator state. Because folding is strictly in index order, the last
snapshot's ``folded`` count fully identifies what is done: a resume
restores aggregators from it, replays the journaled rows before it,
and re-runs everything after it. Run lines past the last snapshot and
torn trailing lines (a kill mid-append) are discarded — at most
``snapshot_every`` runs are ever recomputed. Aggregator state
round-trips through JSON losslessly and folds replay in the same
order, so a resumed sweep's aggregates and exports are *bit-identical*
to an uninterrupted run.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.io.jsonl import JsonlAppender, json_line, read_jsonl
from repro.io.sweep import (
    SweepCsvWriter,
    atomic_write_text,
    save_sweep_json,
    sweep_row,
)
from repro.runner.batch import BatchRunner
from repro.sim.results import SimulationResult
from repro.sweep.aggregate import (
    Aggregator,
    aggregate_tables,
    aggregator_from_spec,
    default_aggregators,
)
from repro.sweep.spec import SweepPoint, SweepSpec
from repro.telemetry import trace as _trace

_CHECKPOINT_FORMAT = "repro-sweep-checkpoint"
_CHECKPOINT_VERSION = 1


class FoldReducer:
    """Worker-side reduction of a run to its row + fold payloads.

    Handed to :meth:`repro.runner.BatchRunner.iter_reduced` so a
    parallel sweep ships each run's deterministic export row and
    per-aggregator fold payloads (kilobytes) across the pool boundary
    instead of full time-series arrays. Folding stays byte-identical:
    ``Aggregator.update()`` is defined as
    ``update_payload(fold_payload(...))`` and ``fold_payload`` is
    state-independent, so extracting worker-side and applying
    parent-side in run order performs the same float operations in the
    same order as the full-result path. Aggregator instances are
    rebuilt from their specs lazily per process (pickling ships only
    the specs).
    """

    def __init__(self, aggregator_specs: Sequence[dict]) -> None:
        self.aggregator_specs = list(aggregator_specs)
        self._aggregators: Optional[list[Aggregator]] = None

    def __getstate__(self) -> dict:
        return {"aggregator_specs": self.aggregator_specs}

    def __setstate__(self, state: dict) -> None:
        self.aggregator_specs = state["aggregator_specs"]
        self._aggregators = None

    def __call__(self, tag, config, result) -> dict:
        index, key = tag
        if self._aggregators is None:
            self._aggregators = [
                aggregator_from_spec(s) for s in self.aggregator_specs
            ]
        return {
            "row": sweep_row(index, key, config, result),
            "agg": {
                str(i): agg.fold_payload(config, result)
                for i, agg in enumerate(self._aggregators)
            },
        }


def _spec_rebuildable(aggregators: Sequence[Aggregator]) -> bool:
    """Whether every reducer round-trips through its spec — the
    precondition for payload-only transport (a custom
    :class:`Aggregator` subclass the factory doesn't know must keep
    receiving full results)."""
    try:
        return all(
            type(aggregator_from_spec(agg.spec())) is type(agg)
            for agg in aggregators
        )
    except Exception:
        return False


@dataclass
class SweepResult:
    """Outcome of one :meth:`SweepRunner.run` session.

    Attributes
    ----------
    name:
        The spec's label.
    fingerprint:
        The spec's :meth:`~repro.sweep.spec.SweepSpec.fingerprint`.
    n_runs:
        Total runs the spec expands to.
    folded:
        Runs folded so far (== ``n_runs`` when complete).
    resumed:
        Runs restored from the checkpoint rather than executed now.
    rows:
        The deterministic export rows, in run order (summaries only —
        full time series are never retained).
    aggregators:
        The reducers, updated through run ``folded - 1``.
    wall_time:
        Wall-clock seconds of this session (excludes resumed work).
    """

    name: str
    fingerprint: str
    n_runs: int
    folded: int
    resumed: int
    rows: list[dict]
    aggregators: list[Aggregator]
    wall_time: float = 0.0

    @property
    def complete(self) -> bool:
        """Whether every run of the spec has been folded."""
        return self.folded >= self.n_runs

    def aggregate_rows(self) -> dict[str, list[dict]]:
        """Rendered aggregate tables, keyed by aggregator kind
        (:func:`repro.sweep.aggregate.aggregate_tables` — shared with
        the distributed merger so exports key tables identically)."""
        return aggregate_tables(self.aggregators)

    def save_json(self, path: Union[str, Path]) -> None:
        """Write the complete export (:func:`repro.io.sweep.save_sweep_json`)."""
        save_sweep_json(
            self.rows,
            self.aggregate_rows(),
            path,
            name=self.name,
            fingerprint=self.fingerprint,
        )


@dataclass
class SweepStatus:
    """What a checkpoint journal says about a sweep's progress."""

    name: str
    fingerprint: str
    n_runs: int
    folded: int
    journaled: int
    elapsed_s: float
    last_key: str = ""

    @property
    def remaining(self) -> int:
        return max(self.n_runs - self.folded, 0)

    @property
    def pct(self) -> float:
        return 100.0 * self.folded / self.n_runs if self.n_runs else 0.0


@dataclass
class _Journal:
    """A parsed checkpoint: consistent prefix + restored reducer state."""

    header: dict
    rows: list[dict] = field(default_factory=list)  # rows[i] is run i
    elapsed: list[float] = field(default_factory=list)
    folded: int = 0
    agg_state: Optional[dict] = None
    journaled: int = 0
    last_key: str = ""


def _parse_journal(path: Path) -> _Journal:
    """Read a checkpoint, tolerating a torn trailing line.

    Returns the journal truncated to its last consistent snapshot:
    ``rows``/``elapsed`` hold runs ``0..folded-1`` and ``agg_state`` is
    the matching aggregator snapshot. A torn trailing line (a kill
    mid-append) is detected by :func:`repro.io.jsonl.read_jsonl` and
    simply discarded — the resume rewrite truncates it from disk too.
    """
    document = read_jsonl(path)
    if not document.entries:
        if document.torn:
            raise ConfigurationError(
                f"checkpoint {path} has no parseable header line"
            )
        raise ConfigurationError(f"checkpoint {path} is empty")
    header = document.entries[0]
    if (
        header.get("kind") != "header"
        or header.get("format") != _CHECKPOINT_FORMAT
    ):
        raise ConfigurationError(f"{path} is not a repro sweep checkpoint")
    if header.get("version") != _CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"unsupported checkpoint version {header.get('version')!r}"
        )
    journal = _Journal(header=header)
    pending_rows: dict[int, dict] = {}
    pending_elapsed: dict[int, float] = {}
    snapshots = 0
    for entry in document.entries[1:]:
        kind = entry.get("kind")
        if kind == "run":
            index = int(entry["index"])
            pending_rows[index] = entry["row"]
            pending_elapsed[index] = float(entry.get("elapsed_s", 0.0))
            journal.journaled += 1
            journal.last_key = str(entry.get("key", ""))
        elif kind == "snapshot":
            folded = int(entry["folded"])
            missing = [
                i for i in range(journal.folded, folded) if i not in pending_rows
            ]
            if missing:
                raise ConfigurationError(
                    f"checkpoint {path} snapshot covers run(s) "
                    f"{missing[:3]}... with no journaled row"
                )
            journal.rows.extend(pending_rows.pop(i) for i in range(journal.folded, folded))
            journal.elapsed.extend(
                pending_elapsed.pop(i) for i in range(journal.folded, folded)
            )
            journal.folded = folded
            journal.agg_state = entry["state"]
            snapshots += 1
    if journal.folded and journal.agg_state is None:  # pragma: no cover
        raise ConfigurationError(f"checkpoint {path} has runs but no snapshot")
    return journal


def _journal_line(payload: dict) -> str:
    return json_line(payload)


def read_status(path: Union[str, Path]) -> SweepStatus:
    """Summarize a checkpoint's progress without touching the spec."""
    journal = _parse_journal(Path(path))
    return SweepStatus(
        name=str(journal.header.get("name", "")),
        fingerprint=str(journal.header.get("fingerprint", "")),
        n_runs=int(journal.header.get("n_runs", 0)),
        folded=journal.folded,
        journaled=journal.journaled,
        elapsed_s=float(sum(journal.elapsed)),
        last_key=journal.last_key,
    )


class SweepRunner:
    """Runs a sweep spec with streaming aggregation and checkpointing.

    Parameters
    ----------
    spec:
        The declarative sweep to execute.
    aggregators:
        Streaming reducers fed in run order; defaults to
        :func:`repro.sweep.aggregate.default_aggregators`. Pass ``()``
        to aggregate nothing (e.g. when only ``on_result`` is wanted).
    max_workers:
        Process fan-out, as for :class:`repro.runner.BatchRunner`
        (``None``/1 = serial; results are identical either way).
    checkpoint:
        Path of the journal file. ``None`` disables checkpointing.
    snapshot_every:
        Folds between aggregator snapshots (1 = after every run; a
        crash recomputes at most this many runs).
    csv_path:
        When set, export rows stream to this CSV as they fold (the
        file is valid after every row; a resume rewrites the journaled
        prefix first, so the finished file is byte-identical to an
        uninterrupted run's).
    on_result:
        Callback ``(point, result)`` invoked per fold, in run order —
        the streaming hook for callers that need the full result
        (memoizing experiment layers, plotters). The runner itself
        drops the result right after.
    progress:
        Callback ``(folded, n_runs, point, elapsed_s)`` per fold, for
        CLI progress reporting.
    stop_after:
        Fold at most this many runs *this session*, then checkpoint
        and return (time-budgeted campaigns; also how tests emulate an
        interruption deterministically).
    chunk_size:
        Points expanded and submitted to the pool per execution chunk.
        Bounds resident state at O(chunk) configs/futures however many
        runs remain (the lazily-expanded spec is pulled chunk by
        chunk), while staying large enough to amortize pool start-up
        across a chunk. The default (256) never changes results — only
        the memory/latency trade.
    """

    #: Default execution chunk: large enough that per-chunk pool
    #: start-up (~0.1-0.5 s) is noise against >= tens of seconds of
    #: simulation, small enough to bound resident configs/futures.
    DEFAULT_CHUNK_SIZE = 256

    def __init__(
        self,
        spec: SweepSpec,
        aggregators: Optional[Sequence[Aggregator]] = None,
        max_workers: Optional[int] = None,
        checkpoint: Optional[Union[str, Path]] = None,
        snapshot_every: int = 1,
        csv_path: Optional[Union[str, Path]] = None,
        on_result: Optional[Callable[[SweepPoint, SimulationResult], None]] = None,
        progress: Optional[Callable[[int, int, SweepPoint, float], None]] = None,
        stop_after: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        if snapshot_every < 1:
            raise ConfigurationError("snapshot_every must be >= 1")
        if stop_after is not None and stop_after < 1:
            raise ConfigurationError("stop_after must be >= 1")
        if chunk_size is None:
            chunk_size = self.DEFAULT_CHUNK_SIZE
        if chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        self.chunk_size = chunk_size
        self.spec = spec
        self.aggregators = (
            default_aggregators() if aggregators is None else list(aggregators)
        )
        self.max_workers = max_workers
        self.checkpoint = None if checkpoint is None else Path(checkpoint)
        self.snapshot_every = snapshot_every
        self.csv_path = None if csv_path is None else Path(csv_path)
        self.on_result = on_result
        self.progress = progress
        self.stop_after = stop_after

    # --- checkpoint plumbing ----------------------------------------------

    def _header_payload(self) -> dict:
        return {
            "kind": "header",
            "format": _CHECKPOINT_FORMAT,
            "version": _CHECKPOINT_VERSION,
            "name": self.spec.name,
            "fingerprint": self.spec.fingerprint(),
            "n_runs": self.spec.run_count,
            "aggregators": [agg.spec() for agg in self.aggregators],
        }

    def _load_checkpoint(self) -> _Journal:
        journal = _parse_journal(self.checkpoint)
        fingerprint = self.spec.fingerprint()
        if journal.header.get("fingerprint") != fingerprint:
            raise ConfigurationError(
                f"checkpoint {self.checkpoint} belongs to a different sweep "
                f"(fingerprint {journal.header.get('fingerprint', '?')[:12]}... "
                f"vs this spec's {fingerprint[:12]}...)"
            )
        # Restore the reducers exactly as the journal ran them. When the
        # caller supplies aggregators whose specs match the header,
        # their instances are kept (this is what lets a custom
        # :class:`Aggregator` subclass resume — the factory only knows
        # built-in kinds); otherwise the set is rebuilt from the header
        # so the journaled state always lands in matching reducers.
        # Snapshot state is keyed by position, so two reducers of the
        # same kind restore independently.
        header_specs = journal.header.get("aggregators", [])
        if [agg.spec() for agg in self.aggregators] != header_specs:
            self.aggregators = [aggregator_from_spec(s) for s in header_specs]
        if journal.agg_state is not None:
            for i, agg in enumerate(self.aggregators):
                state = journal.agg_state.get(str(i))
                if state is not None:
                    agg.load_state(state)
        return journal

    def _snapshot_state(self) -> dict:
        return {str(i): agg.state_dict() for i, agg in enumerate(self.aggregators)}

    def _rewrite_consistent_prefix(self, journal: _Journal) -> None:
        """Truncate the journal to its last snapshot before appending.

        Drops torn trailing lines and folded-but-unsnapshotted run
        lines, so the append-only invariant (every line before the
        cursor is live) holds again.
        """
        lines = [_journal_line(journal.header)]
        for i in range(journal.folded):
            lines.append(
                _journal_line(
                    {
                        "kind": "run",
                        "index": i,
                        "key": journal.rows[i].get("key", ""),
                        "row": journal.rows[i],
                        "elapsed_s": journal.elapsed[i],
                    }
                )
            )
        if journal.folded:
            lines.append(
                _journal_line(
                    {
                        "kind": "snapshot",
                        "folded": journal.folded,
                        "state": self._snapshot_state(),
                    }
                )
            )
        atomic_write_text(self.checkpoint, "\n".join(lines) + "\n")

    # --- execution ---------------------------------------------------------

    def run(self, resume: bool = False) -> SweepResult:
        """Execute (or continue) the sweep; see the class docstring.

        With ``resume=True`` and an existing matching checkpoint, folded
        runs are restored and only the remainder executes. Without
        ``resume``, an existing checkpoint is an error — refuse to
        silently clobber hours of finished work.
        """
        start = time.perf_counter()
        # Catch jointly-invalid axis values across the whole expansion
        # up front — never hours into a campaign.
        self.spec.validate_all()
        journal: Optional[_Journal] = None
        if self.checkpoint is not None and self.checkpoint.exists():
            if not resume:
                raise ConfigurationError(
                    f"checkpoint {self.checkpoint} already exists; resume it "
                    "or delete the file to start over"
                )
            journal = self._load_checkpoint()
        folded = journal.folded if journal is not None else 0
        rows: list[dict] = list(journal.rows) if journal is not None else []
        resumed = folded

        appender = None
        csv_writer = (
            SweepCsvWriter(self.csv_path, prefix_rows=rows)
            if self.csv_path is not None
            else None
        )
        try:
            if self.checkpoint is not None:
                if journal is not None:
                    self._rewrite_consistent_prefix(journal)
                else:
                    self.checkpoint.parent.mkdir(parents=True, exist_ok=True)
                    atomic_write_text(
                        self.checkpoint,
                        _journal_line(self._header_payload()) + "\n",
                    )
                appender = JsonlAppender(self.checkpoint)

            remaining_count = self.spec.run_count - folded
            session_count = (
                remaining_count
                if self.stop_after is None
                else min(self.stop_after, remaining_count)
            )
            session_end = folded + session_count
            session_start = folded  # `folded` mutates in the loop below;
            # the lazy filter must compare against the session's start.
            # Pull the lazy expansion in bounded chunks: resident state
            # is O(chunk_size) points/configs/futures however many runs
            # remain, so a million-run campaign holds megabytes, not the
            # whole expansion.
            points_iter = itertools.islice(
                (
                    point
                    for point in self.spec.iter_points()
                    if point.index >= session_start
                ),
                session_count,
            )
            # Payload-only transport: when nobody downstream needs the
            # full result (no on_result) and every reducer round-trips
            # through its spec, runs collapse to row + fold payloads in
            # the worker — byte-identical folds, kilobytes of pickling.
            reduced = self.on_result is None and _spec_rebuildable(
                self.aggregators
            )
            while True:
                chunk = list(itertools.islice(points_iter, self.chunk_size))
                if not chunk:
                    break
                batch = BatchRunner(
                    [point.config for point in chunk],
                    max_workers=self.max_workers,
                )
                if reduced:
                    stream = batch.iter_reduced(
                        FoldReducer([agg.spec() for agg in self.aggregators]),
                        tags=[(point.index, point.key) for point in chunk],
                    )
                else:
                    stream = batch.iter_runs()
                # closing() makes pool shutdown (and the serial path's
                # default-cache restore) deterministic if a fold raises.
                with contextlib.closing(stream) as batch_runs:
                    for point, run in zip(chunk, batch_runs):
                        with _trace.span("fold", index=point.index):
                            if reduced:
                                row = run.payload["row"]
                                for i, agg in enumerate(self.aggregators):
                                    agg.update_payload(run.payload["agg"][str(i)])
                            else:
                                row = sweep_row(
                                    point.index, point.key, point.config, run.result
                                )
                                for agg in self.aggregators:
                                    agg.update(point.config, run.result)
                        rows.append(row)
                        folded += 1
                        if appender is not None:
                            records = [
                                {
                                    "kind": "run",
                                    "index": point.index,
                                    "key": point.key,
                                    "row": row,
                                    "elapsed_s": run.elapsed,
                                }
                            ]
                            # Snapshot on cadence AND at the session end:
                            # a deliberate stop_after exit knows it is
                            # stopping, so it must not pay the
                            # crash-recovery cost of re-running up to
                            # snapshot_every-1 folds on resume.
                            if (
                                (folded - resumed) % self.snapshot_every == 0
                                or folded == session_end
                            ):
                                records.append(
                                    {
                                        "kind": "snapshot",
                                        "folded": folded,
                                        "state": self._snapshot_state(),
                                    }
                                )
                            # One flush+fsync'd write per fold: a kill
                            # can tear at most the trailing line, which
                            # resume detects and truncates.
                            appender.append(*records)
                        if csv_writer is not None:
                            csv_writer.write(row)
                        if self.on_result is not None:
                            self.on_result(point, run.result)
                        if self.progress is not None:
                            self.progress(
                                folded, self.spec.run_count, point, run.elapsed
                            )
        finally:
            if appender is not None:
                appender.close()
            if csv_writer is not None:
                csv_writer.finish()
                csv_writer.close()
        return SweepResult(
            name=self.spec.name,
            fingerprint=self.spec.fingerprint(),
            n_runs=self.spec.run_count,
            folded=folded,
            resumed=resumed,
            rows=rows,
            aggregators=self.aggregators,
            wall_time=time.perf_counter() - start,
        )
