"""Checkpointed streaming execution of a :class:`~repro.sweep.spec.SweepSpec`.

:class:`SweepRunner` expands the spec lazily, fans the configs out
through :meth:`repro.runner.BatchRunner.iter_reduced`, and folds each
run's export row and aggregator fold payloads — strictly in run-index
order — into incremental aggregators, the export row stream, and an
on-disk journal. Memory stays O(aggregate + in-flight runs), never
O(runs).

Checkpoint format (JSON lines, append-only)
-------------------------------------------

::

    {"kind": "header", "format": "repro-sweep-checkpoint", "version": 2,
     "name": ..., "fingerprint": ..., "n_runs": N, "aggregators": [...]}
    {"kind": "run", "index": 0, "key": ..., "row": {...}, "agg": {...},
     "elapsed_s": ...}
    {"kind": "run", "index": 1, ...}
    ...

Each folded run appends one ``run`` line: its deterministic export row
and its per-aggregator fold payloads — the same record a
:mod:`repro.dist` shard journal holds and ``dist merge`` replays. A
resume drops a torn trailing line (a kill mid-append), rebuilds the
aggregators from the header, and replays the journaled payloads in
run order; every fully journaled run is kept and only the rest
executes. Payloads round-trip through JSON exactly and replay performs
the same float operations in the same order, so a resumed sweep's
aggregates and exports are *bit-identical* to an uninterrupted run.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.io.jsonl import (
    JsonlAppender,
    atomic_write_text,
    json_line,
    read_jsonl,
    truncate_to_consistent,
)
from repro.io.sweep import SweepCsvWriter, save_sweep_json, sweep_row
from repro.runner.batch import BatchRunner, ReducedRun
from repro.sweep.aggregate import (
    Aggregator,
    aggregate_tables,
    aggregator_from_spec,
    default_aggregators,
)
from repro.sweep.spec import SweepPoint, SweepSpec
from repro.telemetry import trace as _trace

_CHECKPOINT_FORMAT = "repro-sweep-checkpoint"
_CHECKPOINT_VERSION = 2


class FoldReducer:
    """Worker-side reduction of a run to its row + fold payloads.

    Handed to :meth:`repro.runner.BatchRunner.iter_reduced` so a
    parallel sweep ships each run's deterministic export row and
    per-aggregator fold payloads (kilobytes) across the pool boundary
    instead of full time-series arrays. ``fold_payload`` is
    state-independent, so extracting worker-side and applying
    parent-side in run order performs the same float operations in the
    same order wherever the run executed. Aggregator instances are
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


def run_record(point: SweepPoint, run: ReducedRun) -> dict:
    """The journal line of one run reduced by :class:`FoldReducer`.

    The one format of a sweep checkpoint's and a :mod:`repro.dist`
    shard journal's ``run`` lines, so both replay the same way.
    """
    return {
        "kind": "run",
        "index": point.index,
        "key": point.key,
        "row": run.payload["row"],
        "agg": run.payload["agg"],
        "elapsed_s": run.elapsed,
    }


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
    """A parsed checkpoint: its header and clean run lines."""

    header: dict
    runs: list[dict]  # runs[i] is the run line of run i
    torn: bool


def _parse_journal(path: Path) -> _Journal:
    """Read a checkpoint, tolerating a torn trailing line.

    A torn trailing line (a kill mid-append) is detected by
    :func:`repro.io.jsonl.read_jsonl` and reported via ``torn``; the
    file itself is left untouched. Every other line after the header
    must be a ``run`` line, contiguous in run index from 0.
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
    runs = document.entries[1:]
    for expected, entry in enumerate(runs):
        if entry.get("kind") != "run" or entry.get("index") != expected:
            raise ConfigurationError(
                f"checkpoint {path} line {expected + 2} is not run "
                f"{expected}: run lines must be contiguous from 0"
            )
    return _Journal(header=header, runs=runs, torn=document.torn)


def read_status(path: Union[str, Path]) -> SweepStatus:
    """Summarize a checkpoint's progress without touching the spec."""
    journal = _parse_journal(Path(path))
    return SweepStatus(
        name=str(journal.header.get("name", "")),
        fingerprint=str(journal.header.get("fingerprint", "")),
        n_runs=int(journal.header.get("n_runs", 0)),
        folded=len(journal.runs),
        elapsed_s=float(sum(run["elapsed_s"] for run in journal.runs)),
        last_key=str(journal.runs[-1]["key"]) if journal.runs else "",
    )


class SweepRunner:
    """Runs a sweep spec with streaming aggregation and checkpointing.

    Parameters
    ----------
    spec:
        The declarative sweep to execute.
    aggregators:
        Reducers fed each run's fold payload in run order; defaults to
        :func:`repro.sweep.aggregate.default_aggregators`. Pass ``()``
        to aggregate nothing. Each must rebuild from its
        :meth:`~repro.sweep.aggregate.Aggregator.spec` through
        :func:`repro.sweep.aggregate.aggregator_from_spec` (workers
        and resumes reconstruct reducers that way); any other is a
        :class:`~repro.errors.ConfigurationError` here.
    max_workers:
        Process fan-out, as for :class:`repro.runner.BatchRunner`
        (``None``/1 = serial; results are identical either way).
    checkpoint:
        Path of the journal file. ``None`` disables checkpointing.
    csv_path:
        When set, export rows stream to this CSV as they fold (the
        file is valid after every row; a resume rewrites the journaled
        prefix first, so the finished file is byte-identical to an
        uninterrupted run's).
    progress:
        Callback ``(folded, n_runs, point, elapsed_s)`` per fold, for
        CLI progress reporting.
    stop_after:
        Fold at most this many runs *this session*, then return
        (time-budgeted campaigns; also how tests emulate an
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
        csv_path: Optional[Union[str, Path]] = None,
        progress: Optional[Callable[[int, int, SweepPoint, float], None]] = None,
        stop_after: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
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
        for agg in self.aggregators:
            # aggregator_from_spec raises for a kind it does not know.
            if type(aggregator_from_spec(agg.spec())) is not type(agg):
                raise ConfigurationError(
                    f"{type(agg).__name__} does not rebuild from its spec "
                    f"{agg.spec()!r}, so its folds cannot be replayed"
                )
        self.max_workers = max_workers
        self.checkpoint = None if checkpoint is None else Path(checkpoint)
        self.csv_path = None if csv_path is None else Path(csv_path)
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

    def _resume_checkpoint(self) -> list[dict]:
        """Validate the journal, drop a torn tail, replay its folds.

        Rebuilds the aggregators from the header and replays every
        journaled run's fold payloads into them in run order. Returns
        the journaled export rows (``rows[i]`` is run ``i``).
        """
        journal = _parse_journal(self.checkpoint)
        fingerprint = self.spec.fingerprint()
        if journal.header.get("fingerprint") != fingerprint:
            raise ConfigurationError(
                f"checkpoint {self.checkpoint} belongs to a different sweep "
                f"(fingerprint {journal.header.get('fingerprint', '?')[:12]}... "
                f"vs this spec's {fingerprint[:12]}...)"
            )
        if journal.torn:
            # Appends resume after the last clean line.
            truncate_to_consistent(self.checkpoint)
        self.aggregators = [
            aggregator_from_spec(s) for s in journal.header.get("aggregators", [])
        ]
        for run in journal.runs:
            for i, agg in enumerate(self.aggregators):
                agg.update_payload(run["agg"][str(i)])
        return [run["row"] for run in journal.runs]

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
        rows: list[dict] = []
        resuming = self.checkpoint is not None and self.checkpoint.exists()
        if resuming:
            if not resume:
                raise ConfigurationError(
                    f"checkpoint {self.checkpoint} already exists; resume it "
                    "or delete the file to start over"
                )
            rows = self._resume_checkpoint()
        folded = resumed = len(rows)

        appender = None
        csv_writer = (
            SweepCsvWriter(self.csv_path, prefix_rows=rows)
            if self.csv_path is not None
            else None
        )
        try:
            if self.checkpoint is not None:
                if not resuming:
                    self.checkpoint.parent.mkdir(parents=True, exist_ok=True)
                    atomic_write_text(
                        self.checkpoint, json_line(self._header_payload()) + "\n"
                    )
                appender = JsonlAppender(self.checkpoint)

            remaining_count = self.spec.run_count - folded
            session_count = (
                remaining_count
                if self.stop_after is None
                else min(self.stop_after, remaining_count)
            )
            # Pull the lazy expansion in bounded chunks: resident state
            # is O(chunk_size) points/configs/futures however many runs
            # remain, so a million-run campaign holds megabytes, not the
            # whole expansion.
            points_iter = itertools.islice(
                (point for point in self.spec.iter_points() if point.index >= resumed),
                session_count,
            )
            # Runs collapse to row + fold payloads in the worker:
            # kilobytes of pickling, and exactly the journal's records.
            reducer = FoldReducer([agg.spec() for agg in self.aggregators])
            while True:
                chunk = list(itertools.islice(points_iter, self.chunk_size))
                if not chunk:
                    break
                batch = BatchRunner(
                    [point.config for point in chunk],
                    max_workers=self.max_workers,
                )
                stream = batch.iter_reduced(
                    reducer, tags=[(point.index, point.key) for point in chunk]
                )
                # closing() makes pool shutdown (and the serial path's
                # default-cache restore) deterministic if a fold raises.
                with contextlib.closing(stream) as batch_runs:
                    for point, run in zip(chunk, batch_runs):
                        with _trace.span("fold", index=point.index):
                            for i, agg in enumerate(self.aggregators):
                                agg.update_payload(run.payload["agg"][str(i)])
                        rows.append(run.payload["row"])
                        folded += 1
                        if appender is not None:
                            # One flush+fsync'd line per fold: a kill
                            # can tear at most this line, which resume
                            # detects and truncates.
                            appender.append(run_record(point, run))
                        if csv_writer is not None:
                            csv_writer.write(run.payload["row"])
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
