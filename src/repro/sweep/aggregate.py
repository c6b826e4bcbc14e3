"""Incremental (streaming) aggregation of sweep results.

A long sweep must not hold its :class:`~repro.sim.results.SimulationResult`
time series in memory — a fig7-sized campaign is hundreds of runs and a
pump-envelope study thousands. Aggregators fold each result as it
streams out of the process pool and keep only O(aggregate) state:

* :class:`ScalarAggregator` — named scalar metrics (peak/mean
  temperature, energies, throughput, migrations, ...) reduced to
  count/mean/min/max per group (grouped by any config-descriptor
  fields, e.g. per policy label or per workload);
* :class:`CellAggregator` — per-floorplan-unit reducers: the running
  mean of each unit's time-average temperature and the running max of
  its peak, across runs (the spatial-hot-spot view of a sweep);
* :class:`HistogramAggregator` — a histogram sketch of one metric per
  group, over a fixed bin range or one derived from the first
  ``warmup`` observations (the default set's energy histogram);
* :class:`QuantileAggregator` — P² streaming quantile estimates
  (Jain & Chlamtac 1985) of one metric per group, at O(1) memory per
  quantile however long the campaign runs;
* :class:`MomentsAggregator` — Welford mean/variance (second central
  moment) of named metrics per group: the numerically stable online
  recurrence, replay/merge-exact in run-index order like every other
  reducer here.

Every fold is split into two halves: :meth:`Aggregator.fold_payload`
extracts a run's JSON-safe contribution (computed on whatever worker
executed the run) and :meth:`Aggregator.update_payload` applies it.
Folding is strictly in run-index order, and a payload survives JSON
exactly (Python floats round-trip), so replaying journaled payloads in
run-index order performs the *same float operations in the same
order* as folding them live. That one property makes a resumed sweep
checkpoint (:mod:`repro.sweep.runner`) and a merged distributed
campaign (:mod:`repro.dist`) bit-identical to an uninterrupted
single-host sweep; no aggregator state is ever serialized.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.constants import CONTROL
from repro.errors import ConfigurationError
from repro.io.sweep import config_descriptor
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult


def _mean_tmax(result: SimulationResult) -> float:
    return float(np.mean(result.tmax)) if len(result.tmax) else float("nan")


#: The named scalar metrics a :class:`ScalarAggregator` can reduce.
METRICS: dict[str, Callable[[SimulationResult], float]] = {
    "peak_temperature": lambda r: r.peak_temperature(),
    "mean_tmax": _mean_tmax,
    "hotspot_pct": lambda r: 100.0 * r.time_above(CONTROL.hotspot_threshold),
    "above_target_pct": lambda r: 100.0 * r.time_above(CONTROL.target_temperature),
    "chip_energy_j": lambda r: r.chip_energy(),
    "pump_energy_j": lambda r: r.pump_energy(),
    "total_energy_j": lambda r: r.total_energy(),
    "throughput_tps": lambda r: r.throughput(),
    "completed_threads": lambda r: float(r.total_completed()),
    "migrations": lambda r: float(r.migrations[-1]) if len(r.migrations) else 0.0,
    "mean_flow_setting": lambda r: r.mean_flow_setting(),
    "mean_sojourn_s": lambda r: r.mean_sojourn_time(),
    # Facility co-simulation metrics: NaN (skipped by every reducer)
    # for fixed-inlet runs, so mixed sweeps aggregate cleanly.
    "pue": lambda r: r.pue(),
    "wue_l_per_kwh": lambda r: r.wue(),
    "total_cooling_power_w": lambda r: r.total_cooling_power(),
    "cooling_energy_j": lambda r: r.cooling_energy(),
    "mean_inlet_temperature": lambda r: r.mean_inlet_temperature(),
    "free_cooling_pct": lambda r: 100.0 * r.free_cooling_fraction(),
}

#: The default scalar set (the quantities the paper's figures compare).
DEFAULT_METRICS: tuple[str, ...] = (
    "peak_temperature",
    "mean_tmax",
    "hotspot_pct",
    "chip_energy_j",
    "pump_energy_j",
    "total_energy_j",
    "throughput_tps",
    "migrations",
)


class RunningStats:
    """Count/sum/min/max of a scalar stream (NaN values are skipped).

    Sums accumulate in arrival order, so two folds of the same ordered
    stream — live, or replayed from a journal — end bit-equal.
    """

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def add(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            return
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")


class Aggregator:
    """Interface every streaming reducer implements.

    A run folds in two halves: :meth:`fold_payload` is a *pure*
    function extracting the run's JSON-safe contribution,
    :meth:`update_payload` applies it. The split is what lets the sweep
    checkpoint and :mod:`repro.dist` journal per-run payloads and
    replay them in run-index order — the same float operations in the
    same order as a live fold, hence bit-identical aggregates.
    :meth:`rows` renders summary rows for export and the CLI, and
    :meth:`spec` rebuilds the reducer through
    :func:`aggregator_from_spec` (which is how workers and resumes
    reconstruct it, so only the kinds it knows can be folded).
    """

    kind: str = ""

    def spec(self) -> dict:
        """Constructor payload for :func:`aggregator_from_spec`."""
        raise NotImplementedError

    def fold_payload(self, config: SimulationConfig, result: SimulationResult) -> dict:
        """One run's JSON-safe contribution (pure; no state change)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support payload folding, "
            "so it cannot be used in a distributed campaign"
        )

    def update_payload(self, payload: Mapping) -> None:
        """Apply a contribution produced by :meth:`fold_payload`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support payload folding, "
            "so it cannot be used in a distributed campaign"
        )

    def rows(self) -> list[dict]:
        raise NotImplementedError


def group_key(config: SimulationConfig, group_by: Sequence[str]) -> str:
    """The group identity of a config under a ``group_by`` field tuple."""
    if not group_by:
        return "all"
    descriptor = config_descriptor(config)
    missing = [f for f in group_by if f not in descriptor]
    if missing:
        raise ConfigurationError(
            f"group_by fields not in the config descriptor: "
            f"{', '.join(missing)}; choose from {', '.join(descriptor)}"
        )
    return "|".join(str(descriptor[f]) for f in group_by)


def _group_columns(group_by: Sequence[str], key: str) -> dict:
    """The identity columns of one rendered aggregate row."""
    if group_by:
        return dict(zip(group_by, key.split("|")))
    return {"group": key}


def _none_if_nan(value: float):
    """NaN rendered as None: JSON-clean and equal across replays."""
    return None if math.isnan(value) else value


class ScalarAggregator(Aggregator):
    """Grouped count/mean/min/max over named scalar metrics.

    Parameters
    ----------
    metrics:
        Names from :data:`METRICS` (specs refer to metrics by name,
        so reducers rebuild without pickling callables).
    group_by:
        Config-descriptor fields that identify a group — default
        ``("label",)`` reduces per policy/cooling combination; use
        ``("benchmark",)`` for per-workload reductions or ``()`` for
        one global group.
    """

    kind = "scalar"

    def __init__(
        self,
        metrics: Sequence[str] = DEFAULT_METRICS,
        group_by: Sequence[str] = ("label",),
    ) -> None:
        unknown = [m for m in metrics if m not in METRICS]
        if unknown:
            raise ConfigurationError(
                f"unknown metrics {', '.join(unknown)}; "
                f"choose from {', '.join(METRICS)}"
            )
        self.metrics = tuple(metrics)
        self.group_by = tuple(group_by)
        # group key -> metric name -> RunningStats; insertion-ordered so
        # rows come out in first-seen order deterministically.
        self._groups: dict[str, dict[str, RunningStats]] = {}

    def spec(self) -> dict:
        return {
            "kind": self.kind,
            "metrics": list(self.metrics),
            "group_by": list(self.group_by),
        }

    def fold_payload(self, config: SimulationConfig, result: SimulationResult) -> dict:
        return {
            "group": group_key(config, self.group_by),
            "values": [METRICS[metric](result) for metric in self.metrics],
        }

    def update_payload(self, payload: Mapping) -> None:
        group = self._groups.setdefault(
            payload["group"], {m: RunningStats() for m in self.metrics}
        )
        for metric, value in zip(self.metrics, payload["values"]):
            group[metric].add(value)

    def rows(self) -> list[dict]:
        """One row per group: identity columns, then mean/min/max stats."""
        rows = []
        for key, group in self._groups.items():
            row: dict = dict(_group_columns(self.group_by, key))
            first = next(iter(group.values()), None)
            row["runs"] = first.count if first is not None else 0
            for metric in self.metrics:
                stats = group[metric]
                row[f"{metric}_mean"] = stats.mean
                row[f"{metric}_min"] = (
                    float("nan") if stats.minimum is None else stats.minimum
                )
                row[f"{metric}_max"] = (
                    float("nan") if stats.maximum is None else stats.maximum
                )
            rows.append(row)
        return rows


class CellAggregator(Aggregator):
    """Per-floorplan-unit temperature reducers across runs.

    For every unit name seen in the sweep, keeps the running mean of
    the unit's time-average temperature and the running max of its
    per-run peak — the sweep-wide spatial hot-spot map, at O(units)
    memory however long the campaign runs.
    """

    kind = "cells"

    def __init__(self) -> None:
        self._mean = {}  # unit -> RunningStats over per-run time-means
        self._peak = {}  # unit -> RunningStats over per-run time-maxima

    def spec(self) -> dict:
        return {"kind": self.kind}

    def fold_payload(self, config: SimulationConfig, result: SimulationResult) -> dict:
        if result.unit_temperatures.size == 0:
            return {"units": []}
        means = result.unit_temperatures.mean(axis=0)
        peaks = result.unit_temperatures.max(axis=0)
        return {
            "units": [
                [name, float(mean), float(peak)]
                for name, mean, peak in zip(result.unit_names, means, peaks)
            ]
        }

    def update_payload(self, payload: Mapping) -> None:
        for name, mean, peak in payload["units"]:
            self._mean.setdefault(name, RunningStats()).add(mean)
            self._peak.setdefault(name, RunningStats()).add(peak)

    def rows(self) -> list[dict]:
        return [
            {
                "unit": name,
                "runs": self._mean[name].count,
                "mean_temperature": self._mean[name].mean,
                "peak_temperature": (
                    float("nan")
                    if self._peak[name].maximum is None
                    else self._peak[name].maximum
                ),
            }
            for name in self._mean
        ]


class HistogramAggregator(Aggregator):
    """Fixed-bin histogram sketch of one metric, per group.

    ``bins`` equal-width bins over ``[lo, hi)`` (values exactly at
    ``hi`` land in the top bin), with explicit underflow/overflow/NaN
    counters so no observation is silently dropped.

    **Data-driven range** — pass ``lo=None, hi=None`` and the range is
    derived from the data itself: the first ``warmup`` finite
    observations are buffered raw, then the bin range freezes to their
    span padded by 5% each side and the buffer replays into the bins.
    This is what metrics whose scale varies by orders of magnitude
    across sweeps need (energy grows with duration and layer count, so
    any fixed range clips some campaigns — the ROADMAP's "energy
    histograms need a data-driven range"). The derivation depends only
    on the observation sequence, which the sweep runner and the
    distributed merger both replay in run-index order, so auto-range
    histograms stay bit-identical across resume and across any
    sharding.
    """

    kind = "histogram"

    #: Default finite observations buffered before an auto range freezes.
    DEFAULT_WARMUP = 64
    #: Fraction of the observed span padded onto each side at freeze.
    RANGE_PAD = 0.05

    def __init__(
        self,
        metric: str = "peak_temperature",
        lo: Optional[float] = 40.0,
        hi: Optional[float] = 120.0,
        bins: int = 32,
        group_by: Sequence[str] = ("label",),
        warmup: int = DEFAULT_WARMUP,
    ) -> None:
        if metric not in METRICS:
            raise ConfigurationError(
                f"unknown metric {metric!r}; choose from {', '.join(METRICS)}"
            )
        if (lo is None) != (hi is None):
            raise ConfigurationError(
                "histogram range must be both explicit (lo and hi) or "
                "both data-driven (lo=None, hi=None)"
            )
        if lo is not None and not lo < hi:
            raise ConfigurationError(f"histogram needs lo < hi, got [{lo}, {hi})")
        if bins < 1:
            raise ConfigurationError("histogram needs at least one bin")
        if warmup < 1:
            raise ConfigurationError("histogram warmup must be >= 1")
        self.metric = metric
        self.auto_range = lo is None
        self.lo = None if lo is None else float(lo)
        self.hi = None if hi is None else float(hi)
        self.bins = int(bins)
        self.warmup = int(warmup)
        self.group_by = tuple(group_by)
        # group key -> {"counts": [bins ints], "underflow", "overflow", "nan"}
        self._groups: dict[str, dict] = {}
        # Auto-range warm-up: [group, value] in arrival order until the
        # range freezes (order matters — replay must reproduce it).
        self._buffer: list[list] = []

    @staticmethod
    def _empty_group(bins: int) -> dict:
        return {"counts": [0] * bins, "underflow": 0, "overflow": 0, "nan": 0}

    def spec(self) -> dict:
        return {
            "kind": self.kind,
            "metric": self.metric,
            "lo": self.lo if not self.auto_range else None,
            "hi": self.hi if not self.auto_range else None,
            "bins": self.bins,
            "warmup": self.warmup,
            "group_by": list(self.group_by),
        }

    @property
    def frozen(self) -> bool:
        """Whether the bin range is decided (always True with an
        explicit range)."""
        return self.lo is not None

    @staticmethod
    def _derive_range(values: Sequence[float], pad: float) -> tuple[float, float]:
        lo, hi = min(values), max(values)
        span = hi - lo
        margin = pad * span if span > 0.0 else max(1.0, abs(lo) * pad)
        return lo - margin, hi + margin

    def _freeze(self) -> None:
        values = [value for _, value in self._buffer]
        self.lo, self.hi = self._derive_range(values, self.RANGE_PAD)
        buffered, self._buffer = self._buffer, []
        for group, value in buffered:
            self._bin({"group": group, "value": value})

    def _edge(self, i: int, lo: float, hi: float) -> float:
        return lo + (hi - lo) * i / self.bins

    def fold_payload(self, config: SimulationConfig, result: SimulationResult) -> dict:
        return {
            "group": group_key(config, self.group_by),
            "value": float(METRICS[self.metric](result)),
        }

    def update_payload(self, payload: Mapping) -> None:
        value = float(payload["value"])
        if math.isnan(value):
            group = self._groups.setdefault(
                payload["group"], self._empty_group(self.bins)
            )
            group["nan"] += 1
            return
        if not self.frozen:
            if math.isinf(value):
                # Infinities must not enter the range derivation (any
                # finite range excludes them anyway): count them where
                # the frozen histogram would — under/overflow.
                group = self._groups.setdefault(
                    payload["group"], self._empty_group(self.bins)
                )
                group["overflow" if value > 0 else "underflow"] += 1
                return
            self._buffer.append([str(payload["group"]), value])
            if len(self._buffer) >= self.warmup:
                self._freeze()
            return
        self._bin(payload)

    def _bin(self, payload: Mapping) -> None:
        value = float(payload["value"])
        group = self._groups.setdefault(
            payload["group"], self._empty_group(self.bins)
        )
        if value < self.lo:
            group["underflow"] += 1
        elif value > self.hi:
            group["overflow"] += 1
        else:
            index = min(
                int((value - self.lo) * self.bins / (self.hi - self.lo)),
                self.bins - 1,
            )
            group["counts"][index] += 1

    def rows(self) -> list[dict]:
        """Non-empty bins per group (plus under/overflow/NaN pseudo-bins).

        ``bin`` is -1 for underflow, ``bins`` for overflow, and None
        for NaN observations; open edges are None (null in JSON
        exports, empty in CSV). An auto-range histogram whose stream
        ended inside the warm-up renders with a provisional range
        derived from the buffered values (state is not mutated).
        """
        groups: Mapping[str, dict] = self._groups
        lo, hi = self.lo, self.hi
        if not self.frozen:
            if not self._buffer and not groups:
                return []
            if self._buffer:
                lo, hi = self._derive_range(
                    [value for _, value in self._buffer], self.RANGE_PAD
                )
                rendered = {
                    key: dict(group, counts=list(group["counts"]))
                    for key, group in groups.items()
                }
                shadow = HistogramAggregator(
                    metric=self.metric, lo=lo, hi=hi, bins=self.bins,
                    group_by=self.group_by,
                )
                shadow._groups = rendered
                for group, value in self._buffer:
                    shadow._bin({"group": group, "value": value})
                groups = shadow._groups
            else:
                # Only NaN observations so far: render the pseudo-bins.
                lo, hi = 0.0, 1.0
        rows = []
        for key, group in groups.items():
            identity = _group_columns(self.group_by, key)
            if group["underflow"]:
                rows.append(
                    {
                        **identity,
                        "metric": self.metric,
                        "bin": -1,
                        "lo": None,
                        "hi": lo,
                        "count": group["underflow"],
                    }
                )
            for i, count in enumerate(group["counts"]):
                if count:
                    rows.append(
                        {
                            **identity,
                            "metric": self.metric,
                            "bin": i,
                            "lo": self._edge(i, lo, hi),
                            "hi": self._edge(i + 1, lo, hi),
                            "count": count,
                        }
                    )
            if group["overflow"]:
                rows.append(
                    {
                        **identity,
                        "metric": self.metric,
                        "bin": self.bins,
                        "lo": hi,
                        "hi": None,
                        "count": group["overflow"],
                    }
                )
            if group["nan"]:
                rows.append(
                    {
                        **identity,
                        "metric": self.metric,
                        "bin": None,
                        "lo": None,
                        "hi": None,
                        "count": group["nan"],
                    }
                )
        return rows


class P2Quantile:
    """The P² streaming quantile estimator (Jain & Chlamtac 1985).

    Tracks one quantile of a scalar stream with five markers — O(1)
    memory however long the stream — entirely in Python floats, so
    folding the same ordered stream twice is bit-identical. The first
    five observations are kept raw; estimates before that interpolate
    the sorted prefix.
    """

    __slots__ = ("p", "count", "heights", "positions", "desired")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ConfigurationError(f"quantile must be in (0, 1), got {p}")
        self.p = float(p)
        self.count = 0
        self.heights: list[float] = []  # <5 obs: raw sorted values
        self.positions: list[int] = []
        self.desired: list[float] = []

    def _increments(self) -> tuple[float, ...]:
        return (0.0, self.p / 2.0, self.p, (1.0 + self.p) / 2.0, 1.0)

    def add(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            return
        self.count += 1
        if self.count <= 5:
            bisect.insort(self.heights, value)
            if self.count == 5:
                self.positions = [1, 2, 3, 4, 5]
                self.desired = [
                    1.0,
                    1.0 + 2.0 * self.p,
                    1.0 + 4.0 * self.p,
                    3.0 + 2.0 * self.p,
                    5.0,
                ]
            return
        q, n, d = self.heights, self.positions, self.desired
        if value < q[0]:
            q[0] = value
            cell = 0
        elif value >= q[4]:
            if value > q[4]:
                q[4] = value
            cell = 3
        else:
            cell = next(i for i in range(4) if q[i] <= value < q[i + 1])
        for i in range(cell + 1, 5):
            n[i] += 1
        increments = self._increments()
        for i in range(5):
            d[i] += increments[i]
        for i in (1, 2, 3):
            delta = d[i] - n[i]
            if (delta >= 1.0 and n[i + 1] - n[i] > 1) or (
                delta <= -1.0 and n[i - 1] - n[i] < -1
            ):
                step = 1 if delta >= 1.0 else -1
                candidate = self._parabolic(i, step)
                if q[i - 1] < candidate < q[i + 1]:
                    q[i] = candidate
                else:
                    q[i] = self._linear(i, step)
                n[i] += step

    def _parabolic(self, i: int, step: int) -> float:
        q, n = self.heights, self.positions
        return q[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: int) -> float:
        q, n = self.heights, self.positions
        return q[i] + step * (q[i + step] - q[i]) / (n[i + step] - n[i])

    def value(self) -> float:
        """The current quantile estimate (NaN with no observations)."""
        if self.count == 0:
            return float("nan")
        if self.count <= 5:
            # Linear interpolation over the raw sorted prefix.
            scaled = self.p * (self.count - 1)
            low = int(scaled)
            frac = scaled - low
            if low + 1 >= self.count:
                return self.heights[-1]
            return self.heights[low] + frac * (
                self.heights[low + 1] - self.heights[low]
            )
        return self.heights[2]


def quantile_column(q: float) -> str:
    """The export column name of a quantile, e.g. 0.95 -> ``"p95"``."""
    return f"p{100.0 * q:g}"


class QuantileAggregator(Aggregator):
    """P² streaming quantile estimates of one metric, per group.

    The estimator is sequential, so shards cannot merge by state;
    resumes and distributed merges replay the journaled per-run
    payloads in run-index order (:meth:`update_payload`), which
    reproduces the single-host estimate bit-for-bit.
    """

    kind = "quantile"

    def __init__(
        self,
        metric: str = "peak_temperature",
        quantiles: Sequence[float] = (0.5, 0.95),
        group_by: Sequence[str] = ("label",),
    ) -> None:
        if metric not in METRICS:
            raise ConfigurationError(
                f"unknown metric {metric!r}; choose from {', '.join(METRICS)}"
            )
        if not quantiles:
            raise ConfigurationError("need at least one quantile")
        self.metric = metric
        self.quantiles = tuple(float(q) for q in quantiles)
        for q in self.quantiles:
            if not 0.0 < q < 1.0:
                raise ConfigurationError(f"quantile must be in (0, 1), got {q}")
        self.group_by = tuple(group_by)
        # group key -> [one P2Quantile per requested quantile]
        self._groups: dict[str, list[P2Quantile]] = {}

    def spec(self) -> dict:
        return {
            "kind": self.kind,
            "metric": self.metric,
            "quantiles": list(self.quantiles),
            "group_by": list(self.group_by),
        }

    def fold_payload(self, config: SimulationConfig, result: SimulationResult) -> dict:
        return {
            "group": group_key(config, self.group_by),
            "value": float(METRICS[self.metric](result)),
        }

    def update_payload(self, payload: Mapping) -> None:
        estimators = self._groups.setdefault(
            payload["group"], [P2Quantile(q) for q in self.quantiles]
        )
        for estimator in estimators:
            estimator.add(payload["value"])

    def rows(self) -> list[dict]:
        rows = []
        for key, estimators in self._groups.items():
            row = dict(_group_columns(self.group_by, key))
            row["metric"] = self.metric
            row["runs"] = estimators[0].count if estimators else 0
            for q, estimator in zip(self.quantiles, estimators):
                row[quantile_column(q)] = estimator.value()
            rows.append(row)
        return rows


class WelfordMoments:
    """Welford's online mean/variance of a scalar stream.

    The numerically stable recurrence (count, mean, M2 = sum of
    squared deviations); NaN values are skipped, matching
    :class:`RunningStats`. All arithmetic is in Python floats applied
    in arrival order, so folding the same ordered stream twice is
    bit-identical.
    """

    __slots__ = ("count", "mean", "m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            return
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1; NaN below two observations)."""
        if self.count < 2:
            return float("nan")
        return self.m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        variance = self.variance
        return math.sqrt(variance) if not math.isnan(variance) else variance


class MomentsAggregator(Aggregator):
    """Grouped Welford mean/variance over named scalar metrics.

    The spread companion to :class:`ScalarAggregator`'s min/mean/max:
    per group, every metric gets a numerically stable streaming mean,
    sample variance, and standard deviation. Like every built-in
    reducer the update is split into a pure :meth:`fold_payload` and a
    mutating :meth:`update_payload`, so distributed campaigns replay
    journaled payloads in run-index order and merge bit-identically to
    a single-host fold.
    """

    kind = "moments"

    def __init__(
        self,
        metrics: Sequence[str] = DEFAULT_METRICS,
        group_by: Sequence[str] = ("label",),
    ) -> None:
        unknown = [m for m in metrics if m not in METRICS]
        if unknown:
            raise ConfigurationError(
                f"unknown metrics {', '.join(unknown)}; "
                f"choose from {', '.join(METRICS)}"
            )
        self.metrics = tuple(metrics)
        self.group_by = tuple(group_by)
        # group key -> metric name -> WelfordMoments, insertion-ordered.
        self._groups: dict[str, dict[str, WelfordMoments]] = {}

    def spec(self) -> dict:
        return {
            "kind": self.kind,
            "metrics": list(self.metrics),
            "group_by": list(self.group_by),
        }

    def fold_payload(self, config: SimulationConfig, result: SimulationResult) -> dict:
        return {
            "group": group_key(config, self.group_by),
            "values": [METRICS[metric](result) for metric in self.metrics],
        }

    def update_payload(self, payload: Mapping) -> None:
        group = self._groups.setdefault(
            payload["group"], {m: WelfordMoments() for m in self.metrics}
        )
        for metric, value in zip(self.metrics, payload["values"]):
            group[metric].add(value)

    def rows(self) -> list[dict]:
        """One row per group: identity columns, then mean/var/std.

        Undefined moments (no observations; variance below two) render
        as ``None`` rather than NaN so rows stay JSON-clean and compare
        equal across replays (NaN never equals itself).
        """
        rows = []
        for key, group in self._groups.items():
            row: dict = dict(_group_columns(self.group_by, key))
            first = next(iter(group.values()), None)
            row["runs"] = first.count if first is not None else 0
            for metric in self.metrics:
                moments = group[metric]
                row[f"{metric}_mean"] = (
                    moments.mean if moments.count else None
                )
                row[f"{metric}_var"] = _none_if_nan(moments.variance)
                row[f"{metric}_std"] = _none_if_nan(moments.std)
            rows.append(row)
        return rows


_AGGREGATOR_KINDS = {
    "scalar": ScalarAggregator,
    "cells": CellAggregator,
    "histogram": HistogramAggregator,
    "quantile": QuantileAggregator,
    "moments": MomentsAggregator,
}


def aggregator_from_spec(spec: Mapping) -> Aggregator:
    """Rebuild an aggregator from its :meth:`Aggregator.spec` payload
    (how workers and checkpoint resumes reconstruct the reducers)."""
    kind = spec.get("kind")
    if kind == "scalar":
        return ScalarAggregator(
            metrics=spec.get("metrics", DEFAULT_METRICS),
            group_by=spec.get("group_by", ("label",)),
        )
    if kind == "cells":
        return CellAggregator()
    if kind == "histogram":
        return HistogramAggregator(
            metric=spec.get("metric", "peak_temperature"),
            lo=spec.get("lo", 40.0),
            hi=spec.get("hi", 120.0),
            bins=spec.get("bins", 32),
            group_by=spec.get("group_by", ("label",)),
            warmup=spec.get("warmup", HistogramAggregator.DEFAULT_WARMUP),
        )
    if kind == "quantile":
        return QuantileAggregator(
            metric=spec.get("metric", "peak_temperature"),
            quantiles=spec.get("quantiles", (0.5, 0.95)),
            group_by=spec.get("group_by", ("label",)),
        )
    if kind == "moments":
        return MomentsAggregator(
            metrics=spec.get("metrics", DEFAULT_METRICS),
            group_by=spec.get("group_by", ("label",)),
        )
    raise ConfigurationError(
        f"unknown aggregator kind {kind!r}; "
        f"choose from {', '.join(_AGGREGATOR_KINDS)}"
    )


def aggregate_tables(aggregators: Sequence[Aggregator]) -> dict[str, list[dict]]:
    """Rendered aggregate tables, keyed by aggregator kind.

    Duplicate kinds (two scalar reducers with different grouping) get a
    positional suffix so no table is silently dropped. Shared by
    :class:`~repro.sweep.runner.SweepResult` and the distributed
    merger, so completion exports key tables identically everywhere.
    """
    tables: dict[str, list[dict]] = {}
    for i, agg in enumerate(aggregators):
        key = agg.kind if agg.kind not in tables else f"{agg.kind}_{i}"
        tables[key] = agg.rows()
    return tables


def default_aggregators() -> list[Aggregator]:
    """The standard reduction set: per-label scalars, the cell map,
    the peak-temperature distribution sketches, Welford mean/variance
    moments, and a data-driven energy histogram (energy scales with
    duration and layer count, so its range must come from the campaign
    itself)."""
    return [
        ScalarAggregator(),
        CellAggregator(),
        HistogramAggregator(),
        QuantileAggregator(),
        MomentsAggregator(),
        HistogramAggregator(metric="total_energy_j", lo=None, hi=None),
    ]
