"""Streaming serialization of sweep results.

The one export format for multi-run work: ``repro sweep run``,
``repro batch`` and ``repro dist merge`` all write it. It satisfies
two constraints:

* **streaming** — rows are written as runs fold, not from an in-memory
  list of results, so hour-long campaigns export at O(1) result memory;
* **determinism** — a checkpoint-resumed sweep must export
  *byte-identical* files to an uninterrupted one, so rows carry only
  run-determined values (no wall-clock timings) and floats are printed
  with one repr everywhere.

:class:`SweepCsvWriter` appends one row per fold; on resume it first
rewrites the journaled prefix so the final file never depends on where
the interruption happened. :func:`save_sweep_json` writes the complete
export (rows + aggregate tables) once a sweep finishes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import IO, Iterable, Mapping, Optional, Union

from repro.io.serialize import result_summary
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult

_SWEEP_FORMAT_VERSION = 1


def _params_cell(params) -> str:
    """Component params as a canonical compact JSON string column
    (empty string when the mapping is empty, for clean CSV)."""
    if not params:
        return ""
    return json.dumps(dict(sorted(params.items())), sort_keys=True,
                      separators=(",", ":"))


def config_descriptor(config: SimulationConfig) -> dict:
    """Flat, JSON-friendly identity of a run configuration.

    Captures the experiment-matrix axes (benchmark, policy registry key
    + params, cooling, controller key + params, workload model key +
    params, layers, duration, seed,
    DPM); thermal/grid parameters are omitted because they are constant
    across a sweep — archive the code revision for those. Component
    parameter mappings render as canonical JSON strings so two runs
    differing only in a swept gain stay distinguishable in exports and
    aggregator groupings.
    """
    return {
        "benchmark": config.benchmark_name,
        "policy": config.policy,
        "policy_params": _params_cell(config.policy_params),
        "cooling": config.cooling.value,
        "controller": config.controller,
        "controller_params": _params_cell(config.controller_params),
        "workload": config.workload,
        "workload_params": _params_cell(config.workload_params),
        "facility": config.facility,
        "facility_params": _params_cell(config.facility_params),
        "n_layers": config.n_layers,
        "duration": config.duration,
        "seed": config.seed,
        "dpm": config.dpm_enabled,
        "label": config.label(),
    }


def sweep_row(
    index: int,
    key: str,
    config: SimulationConfig,
    result: SimulationResult,
) -> dict:
    """The deterministic export row for one folded run.

    Config descriptor columns, then the scalar result summary.
    Wall-clock quantities are deliberately excluded: the row must be
    identical however (and however often) the run was scheduled.
    """
    row = {"run": index, "key": key}
    row.update(config_descriptor(config))
    row.update(result_summary(result))
    return row


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


class SweepCsvWriter:
    """Appends sweep rows to a CSV file as they fold.

    The header (and, on resume, the already-journaled prefix rows) is
    written on the first :meth:`write`; each row is flushed so an
    interrupted sweep leaves a valid, truncation-only CSV behind.
    """

    def __init__(
        self,
        path: Union[str, Path],
        prefix_rows: Iterable[Mapping] = (),
    ) -> None:
        self.path = Path(path)
        self._prefix = list(prefix_rows)
        self._handle: Optional[IO[str]] = None
        self._writer = None
        self._columns: Optional[list[str]] = None

    def _open(self, first_row: Mapping) -> None:
        self._handle = open(self.path, "w", newline="")
        self._writer = csv.writer(self._handle)
        self._columns = list(self._prefix[0] if self._prefix else first_row)
        self._writer.writerow(self._columns)
        for row in self._prefix:
            self._write_row(row)
        self._prefix = []

    def _write_row(self, row: Mapping) -> None:
        self._writer.writerow(
            [_csv_cell(row.get(column)) for column in self._columns]
        )

    def write(self, row: Mapping) -> None:
        """Append one row (opens the file and writes the header first)."""
        if self._handle is None:
            self._open(row)
        self._write_row(row)
        self._handle.flush()

    def finish(self) -> None:
        """Flush pending prefix rows even if nothing new was written
        (a resume of an already-complete sweep still gets its CSV)."""
        if self._handle is None and self._prefix:
            self._open(self._prefix[0])
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepCsvWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_sweep_csv(rows: Iterable[Mapping], path: Union[str, Path]) -> None:
    """Write already-collected sweep rows as CSV in one call.

    Produces byte-identical output to streaming the same rows through
    :class:`SweepCsvWriter` (the equivalence the resume tests pin).
    """
    rows = list(rows)
    if not rows:
        raise ValueError("sweep has no rows to write")
    with SweepCsvWriter(path, prefix_rows=rows[:-1]) as writer:
        writer.write(rows[-1])


def _json_safe(value):
    """NaN has no JSON encoding: export it as null."""
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def save_sweep_json(
    rows: Iterable[Mapping],
    aggregates: Mapping[str, Iterable[Mapping]],
    path: Union[str, Path],
    name: str = "",
    fingerprint: str = "",
) -> None:
    """Write the complete sweep export: per-run rows + aggregate tables.

    Deterministic by construction — the payload contains only
    run-determined values, so fresh and resumed sweeps produce
    byte-identical files.
    """
    rows = list(rows)
    payload = {
        "format_version": _SWEEP_FORMAT_VERSION,
        "name": name,
        "fingerprint": fingerprint,
        "n_runs": len(rows),
        "rows": _json_safe(rows),
        "aggregates": {
            agg_name: _json_safe(list(agg_rows))
            for agg_name, agg_rows in aggregates.items()
        },
    }
    Path(path).write_text(json.dumps(payload))

