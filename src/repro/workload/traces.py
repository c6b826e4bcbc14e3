"""mpstat-style utilization traces (the paper's measurement pipeline).

Section V: "we sample the utilization percentage for each hardware
thread at every second using mpstat for half an hour". This module
carries such traces: per-second system utilization series that can be

* loaded from CSV or JSONL (interchange with real mpstat logs),
* used to drive the generator directly, reproducing a measured load
  profile instead of a stationary Table II average.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import WorkloadError
from repro.workload.benchmarks import BenchmarkSpec
from repro.workload.generator import (
    _LENGTH_SIGMA,
    _MAX_LENGTH,
    _MEDIAN_LENGTH,
    _MIN_LENGTH,
    ThreadTrace,
)
from repro.workload.threads import Thread


@dataclass(frozen=True)
class UtilizationTrace:
    """A per-second system utilization series (mpstat-like).

    Attributes
    ----------
    utilization:
        Fraction of total capacity demanded in each 1 s slot, in
        [0, 1].
    n_cores:
        The core count the fractions refer to.
    name:
        Label (workload or log name).
    """

    utilization: np.ndarray
    n_cores: int
    name: str = "trace"

    def __post_init__(self) -> None:
        util = np.asarray(self.utilization, dtype=float)
        if util.ndim != 1 or len(util) == 0:
            raise WorkloadError("utilization trace must be a non-empty 1-D series")
        if np.any(util < 0.0) or np.any(util > 1.0):
            raise WorkloadError("utilization values must lie in [0, 1]")
        if self.n_cores <= 0:
            raise WorkloadError("n_cores must be positive")
        object.__setattr__(self, "utilization", util)

    @property
    def duration(self) -> float:
        """Covered time, s (one slot per second)."""
        return float(len(self.utilization))

    def mean_utilization(self) -> float:
        """Long-run average utilization fraction."""
        return float(self.utilization.mean())

    # --- I/O -------------------------------------------------------------

    @classmethod
    def from_csv(
        cls, path: Union[str, Path], n_cores: int, name: str | None = None
    ) -> "UtilizationTrace":
        """Read a two-column CSV: a header row, then one ``second,
        utilization_pct`` row per 1 s slot (a real mpstat dump reduced
        to those two columns). Only the second column is read, as a
        percentage of total capacity."""
        path = Path(path)
        values: list[float] = []
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise WorkloadError(f"{path.name}: empty trace file")
            for row_no, row in enumerate(reader, start=2):
                if len(row) < 2:
                    raise WorkloadError(f"{path.name}:{row_no}: expected 2 columns")
                try:
                    values.append(float(row[1]) / 100.0)
                except ValueError as exc:
                    raise WorkloadError(f"{path.name}:{row_no}: {exc}")
        return cls(
            utilization=np.asarray(values),
            n_cores=n_cores,
            name=name or path.stem,
        )

    @classmethod
    def from_jsonl(
        cls, path: Union[str, Path], n_cores: int, name: str | None = None
    ) -> "UtilizationTrace":
        """Read a JSONL trace: one ``{"second": s, "utilization_pct":
        u}`` object per 1 s slot, one per line; blank lines are skipped.
        Only ``utilization_pct`` is read, as a percentage of total
        capacity."""
        path = Path(path)
        values: list[float] = []
        with open(path) as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    values.append(float(entry["utilization_pct"]) / 100.0)
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    raise WorkloadError(f"{path.name}:{line_no}: {exc}")
        if not values:
            raise WorkloadError(f"{path.name}: empty trace file")
        return cls(
            utilization=np.asarray(values),
            n_cores=n_cores,
            name=name or path.stem,
        )

    @classmethod
    def from_file(
        cls, path: Union[str, Path], n_cores: int, name: str | None = None
    ) -> "UtilizationTrace":
        """Load a trace file, dispatching on suffix (``.jsonl`` vs CSV)."""
        path = Path(path)
        if path.suffix.lower() in (".jsonl", ".ndjson"):
            return cls.from_jsonl(path, n_cores=n_cores, name=name)
        return cls.from_csv(path, n_cores=n_cores, name=name)


def generate_from_utilization(
    trace: UtilizationTrace,
    spec: BenchmarkSpec,
    seed: int = 0,
) -> ThreadTrace:
    """Synthesize a thread trace that follows a recorded load profile.

    The per-second arrival rate is set so the offered load in each slot
    matches the recorded utilization; thread lengths use the same
    distribution as the stationary generator. This is how a real mpstat
    log (imported with :meth:`UtilizationTrace.from_csv`) is replayed
    through the simulator.
    """
    rng = np.random.default_rng(seed + 101 * spec.index)
    mean_length = _MEDIAN_LENGTH * float(np.exp(0.5 * _LENGTH_SIGMA**2))
    threads: list[Thread] = []
    thread_id = 0
    for slot, utilization in enumerate(trace.utilization):
        rate = utilization * trace.n_cores / mean_length
        t = float(slot)
        end = t + 1.0
        while rate > 0.0:
            t += float(rng.exponential(1.0 / rate))
            if t >= end:
                break
            length = float(
                np.clip(
                    rng.lognormal(np.log(_MEDIAN_LENGTH), _LENGTH_SIGMA),
                    _MIN_LENGTH,
                    _MAX_LENGTH,
                )
            )
            threads.append(Thread(thread_id, t, length))
            thread_id += 1
    return ThreadTrace(
        threads=tuple(threads),
        duration=trace.duration,
        spec=spec,
        n_cores=trace.n_cores,
    )
