"""Exact reductions of sweep results, from the runs' fold payloads.

A long sweep must not hold its :class:`~repro.sim.results.SimulationResult`
time series in memory — a fig7-sized campaign is hundreds of runs and a
pump-envelope study thousands. Each run instead collapses, on whatever
worker executed it, to one small JSON-safe *fold payload* per
aggregator (:meth:`Aggregator.fold_payload`: a group key and a few
floats, or a mean/peak pair per floorplan unit). An aggregator keeps
the payloads it is fed in run-index order
(:meth:`Aggregator.update_payload`), and every table it renders is a
pure function of that list (:meth:`Aggregator.rows`):

* :class:`ScalarAggregator` — named scalar metrics (peak/mean
  temperature, energies, throughput, migrations, ...) reduced to
  count/mean/min/max per group (grouped by any config-descriptor
  fields, e.g. per policy label or per workload);
* :class:`CellAggregator` — per-floorplan-unit reducers: the mean of
  each unit's time-average temperature and the max of its peak, across
  runs (the spatial-hot-spot view of a sweep);
* :class:`HistogramAggregator` — a histogram of one metric per group,
  over a fixed bin range or the campaign's exact finite min/max padded
  by :attr:`HistogramAggregator.RANGE_PAD` (the default set's energy
  histogram);
* :class:`QuantileAggregator` — exact quantiles of one metric per
  group: linear interpolation at ``p * (n - 1)`` over the group's
  sorted finite values;
* :class:`MomentsAggregator` — Welford mean/variance (second central
  moment) of named metrics per group.

The payloads are exactly what a sweep checkpoint
(:mod:`repro.sweep.runner`) and a distributed shard (:mod:`repro.dist`)
journal, and a payload survives JSON exactly (Python floats
round-trip). A resume or a merge replays them in run-index order, so
its list, and every table rendered from it, equals an uninterrupted
single-host sweep's: sums, Welford updates, minima and maxima run over
the list in that order, bit for bit. No aggregator state is ever
serialized. The memory cost is the list itself: about 3.3 KB per run
with the default set (18 units), of which the cell map, kept as
columns by :class:`CellAggregator`, is 0.8 KB.
"""

from __future__ import annotations

import inspect
import math
import sys
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


def _observed(values) -> list[float]:
    """``values`` as floats in arrival order, NaN skipped."""
    return [v for v in map(float, values) if not math.isnan(v)]


def _mean(values: Sequence[float]) -> float:
    """Mean summed left to right from 0.0 (NaN when empty)."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values) if values else float("nan")


def _none_if_nan(value: float):
    """NaN rendered as None: JSON-clean and equal across replays."""
    return None if math.isnan(value) else value


class Aggregator:
    """Interface every reducer implements.

    A run folds in two halves: :meth:`fold_payload` is a *pure*
    function extracting the run's JSON-safe contribution,
    :meth:`update_payload` records it. The split is what lets the sweep
    checkpoint and :mod:`repro.dist` journal per-run payloads and
    replay them in run-index order into the same list a live fold
    builds. :meth:`rows` renders summary rows from that list (for
    export and the CLI) without changing it, and :meth:`spec` rebuilds
    the reducer through :func:`aggregator_from_spec` (which is how
    workers and resumes reconstruct it, so only the kinds it knows can
    be folded).
    """

    kind: str = ""

    def __init__(self) -> None:
        self._payloads: list[Mapping] = []

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
        """Record a contribution produced by :meth:`fold_payload`
        (callers fold in run-index order)."""
        self._payloads.append(payload)

    def rows(self) -> list[dict]:
        raise NotImplementedError

    def _grouped(self, field: str) -> dict[str, list]:
        """``payload[field]`` per group, groups in first-seen order."""
        groups: dict[str, list] = {}
        for payload in self._payloads:
            groups.setdefault(payload["group"], []).append(payload[field])
        return groups


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


class _MetricSetAggregator(Aggregator):
    """Several named metrics per group, one row per group.

    ``runs`` counts the first metric's non-NaN values; each subclass
    reduces one metric's non-NaN values (in arrival order) to its
    columns in :meth:`_reduce`.
    """

    def __init__(
        self,
        metrics: Sequence[str] = DEFAULT_METRICS,
        group_by: Sequence[str] = ("label",),
    ) -> None:
        super().__init__()
        unknown = [m for m in metrics if m not in METRICS]
        if unknown:
            raise ConfigurationError(
                f"unknown metrics {', '.join(unknown)}; "
                f"choose from {', '.join(METRICS)}"
            )
        self.metrics = tuple(metrics)
        self.group_by = tuple(group_by)

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

    def _reduce(self, metric: str, values: list[float]) -> dict:
        raise NotImplementedError

    def rows(self) -> list[dict]:
        rows = []
        for key, runs in self._grouped("values").items():
            row: dict = dict(_group_columns(self.group_by, key))
            columns = [
                _observed(run[i] for run in runs) for i in range(len(self.metrics))
            ]
            row["runs"] = len(columns[0]) if columns else 0
            for metric, values in zip(self.metrics, columns):
                row.update(self._reduce(metric, values))
            rows.append(row)
        return rows


class ScalarAggregator(_MetricSetAggregator):
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

    def _reduce(self, metric: str, values: list[float]) -> dict:
        nan = float("nan")
        return {
            f"{metric}_mean": _mean(values),
            f"{metric}_min": min(values, default=nan),
            f"{metric}_max": max(values, default=nan),
        }


class MomentsAggregator(_MetricSetAggregator):
    """Grouped Welford mean/variance over named scalar metrics.

    The spread companion to :class:`ScalarAggregator`'s min/mean/max:
    per group, every metric gets the numerically stable Welford mean,
    sample variance (ddof=1) and standard deviation. Undefined moments
    (no observations; variance below two) render as ``None`` rather
    than NaN so rows stay JSON-clean and compare equal across replays
    (NaN never equals itself).
    """

    kind = "moments"

    def _reduce(self, metric: str, values: list[float]) -> dict:
        count, mean, m2 = 0, 0.0, 0.0
        for value in values:
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
        variance = m2 / (count - 1) if count >= 2 else float("nan")
        return {
            f"{metric}_mean": mean if count else None,
            f"{metric}_var": _none_if_nan(variance),
            f"{metric}_std": _none_if_nan(math.sqrt(variance)),
        }


class CellAggregator(Aggregator):
    """Per-floorplan-unit temperature reducers across runs.

    For every unit name seen in the sweep (first-seen order), the mean
    of the unit's per-run time-average temperature and the max of its
    per-run peak — the sweep-wide spatial hot-spot map.

    A run is recorded as columns, not as its ``[name, mean, peak]``
    lists: one unit-name tuple shared by every run with the same unit
    sequence, plus a float array of means and one of peaks. Float64
    holds every payload float exactly, so the rows are bitwise those of
    the lists, at about a fifth of their memory.
    """

    kind = "cells"

    def __init__(self) -> None:
        super().__init__()
        self._unit_sets: dict[tuple, tuple] = {}

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
        units = payload["units"]
        names = tuple(unit[0] for unit in units)
        self._payloads.append((
            self._unit_sets.setdefault(names, names),
            np.array([unit[1] for unit in units], dtype=float),
            np.array([unit[2] for unit in units], dtype=float),
        ))

    def rows(self) -> list[dict]:
        units: dict[str, tuple[list, list]] = {}
        for names, run_means, run_peaks in self._payloads:
            for name, mean, peak in zip(names, run_means.tolist(), run_peaks.tolist()):
                means, peaks = units.setdefault(name, ([], []))
                means.append(mean)
                peaks.append(peak)
        rows = []
        for name, (means, peaks) in units.items():
            means = _observed(means)
            rows.append(
                {
                    "unit": name,
                    "runs": len(means),
                    "mean_temperature": _mean(means),
                    "peak_temperature": max(_observed(peaks), default=float("nan")),
                }
            )
        return rows


class _OneMetricAggregator(Aggregator):
    """One named metric per group; a run's payload is its group and
    value."""

    def __init__(
        self, metric: str = "peak_temperature", group_by: Sequence[str] = ("label",)
    ) -> None:
        super().__init__()
        if metric not in METRICS:
            raise ConfigurationError(
                f"unknown metric {metric!r}; choose from {', '.join(METRICS)}"
            )
        self.metric = metric
        self.group_by = tuple(group_by)

    def fold_payload(self, config: SimulationConfig, result: SimulationResult) -> dict:
        return {
            "group": group_key(config, self.group_by),
            "value": float(METRICS[self.metric](result)),
        }


class HistogramAggregator(_OneMetricAggregator):
    """Equal-width histogram of one metric, per group.

    ``bins`` equal-width bins over ``[lo, hi)`` (values exactly at
    ``hi`` land in the top bin), with explicit underflow/overflow/NaN
    counters so no observation is silently dropped.

    **Data-driven range** — pass ``lo=None, hi=None`` and the range is
    the campaign's exact finite min/max (over every group), padded by
    :attr:`RANGE_PAD` of the span each side, so no finite value
    overflows (below ~1e306 in magnitude); infinities land in
    under/overflow. This is what metrics
    whose scale varies by orders of magnitude across sweeps need
    (energy grows with duration and layer count, so any fixed range
    clips some campaigns).
    """

    kind = "histogram"

    #: Fraction of the observed span padded onto each side of an auto
    #: range.
    RANGE_PAD = 0.05

    def __init__(
        self,
        metric: str = "peak_temperature",
        lo: Optional[float] = 40.0,
        hi: Optional[float] = 120.0,
        bins: int = 32,
        group_by: Sequence[str] = ("label",),
    ) -> None:
        super().__init__(metric, group_by)
        if (lo is None) != (hi is None):
            raise ConfigurationError(
                "histogram range must be both explicit (lo and hi) or "
                "both data-driven (lo=None, hi=None)"
            )
        if lo is not None and not lo < hi:
            raise ConfigurationError(f"histogram needs lo < hi, got [{lo}, {hi})")
        if bins < 1:
            raise ConfigurationError("histogram needs at least one bin")
        self.auto_range = lo is None
        self.lo = None if lo is None else float(lo)
        self.hi = None if hi is None else float(hi)
        self.bins = int(bins)

    def spec(self) -> dict:
        return {
            "kind": self.kind,
            "metric": self.metric,
            "lo": self.lo,
            "hi": self.hi,
            "bins": self.bins,
            "group_by": list(self.group_by),
        }

    def _bin_range(self) -> tuple[float, float]:
        """The bin range: explicit, or the padded finite min/max of the
        values folded so far (``(0.0, 1.0)`` before any finite one),
        clipped to ``±float_max / (2 * bins)`` so that edges and bin
        indices stay finite (only magnitudes beyond ~1e306 are cut)."""
        if not self.auto_range:
            return self.lo, self.hi
        finite = [
            v for v in map(float, (p["value"] for p in self._payloads))
            if math.isfinite(v)
        ]
        if not finite:
            return 0.0, 1.0
        lo, hi = min(finite), max(finite)
        span = hi - lo
        pad = self.RANGE_PAD
        margin = pad * span if span > 0.0 else max(1.0, abs(lo) * pad)
        limit = sys.float_info.max / (2 * self.bins)
        return max(lo - margin, -limit), min(hi + margin, limit)

    def _edge(self, i: int, lo: float, hi: float) -> float:
        return lo + (hi - lo) * i / self.bins

    def rows(self) -> list[dict]:
        """Non-empty bins per group (plus under/overflow/NaN pseudo-bins).

        ``bin`` is -1 for underflow, ``bins`` for overflow, and None
        for NaN observations; open edges are None (null in JSON
        exports, empty in CSV).
        """
        lo, hi = self._bin_range()
        rows = []
        for key, values in self._grouped("value").items():
            counts = [0] * self.bins
            underflow = overflow = nans = 0
            for value in map(float, values):
                if math.isnan(value):
                    nans += 1
                elif value < lo:
                    underflow += 1
                elif value > hi:
                    overflow += 1
                else:
                    slot = int((value - lo) * self.bins / (hi - lo))
                    counts[min(slot, self.bins - 1)] += 1
            cells = [(-1, None, lo, underflow)]
            cells += [
                (i, self._edge(i, lo, hi), self._edge(i + 1, lo, hi), count)
                for i, count in enumerate(counts)
            ]
            cells += [(self.bins, hi, None, overflow), (None, None, None, nans)]
            identity = _group_columns(self.group_by, key)
            rows.extend(
                {
                    **identity,
                    "metric": self.metric,
                    "bin": index,
                    "lo": low,
                    "hi": high,
                    "count": count,
                }
                for index, low, high, count in cells
                if count
            )
        return rows


def quantile_column(q: float) -> str:
    """The export column name of a quantile, e.g. 0.95 -> ``"p95"``."""
    return f"p{100.0 * q:g}"


def _quantile(ordered: Sequence[float], p: float) -> float:
    """Linear interpolation at ``p * (n - 1)`` over ascending values
    (NaN when empty)."""
    n = len(ordered)
    if not n:
        return float("nan")
    scaled = p * (n - 1)
    low = int(scaled)
    if low + 1 >= n:
        return ordered[-1]
    return ordered[low] + (scaled - low) * (ordered[low + 1] - ordered[low])


class QuantileAggregator(_OneMetricAggregator):
    """Exact quantiles of one metric, per group.

    Each quantile ``p`` interpolates linearly at ``p * (n - 1)`` over
    the group's ``n`` sorted finite values (numpy's default ``linear``
    method); ``runs`` is ``n``.
    """

    kind = "quantile"

    def __init__(
        self,
        metric: str = "peak_temperature",
        quantiles: Sequence[float] = (0.5, 0.95),
        group_by: Sequence[str] = ("label",),
    ) -> None:
        super().__init__(metric, group_by)
        if not quantiles:
            raise ConfigurationError("need at least one quantile")
        self.quantiles = tuple(float(q) for q in quantiles)
        for q in self.quantiles:
            if not 0.0 < q < 1.0:
                raise ConfigurationError(f"quantile must be in (0, 1), got {q}")

    def spec(self) -> dict:
        return {
            "kind": self.kind,
            "metric": self.metric,
            "quantiles": list(self.quantiles),
            "group_by": list(self.group_by),
        }

    def rows(self) -> list[dict]:
        rows = []
        for key, values in self._grouped("value").items():
            ordered = sorted(v for v in map(float, values) if math.isfinite(v))
            row = dict(_group_columns(self.group_by, key))
            row["metric"] = self.metric
            row["runs"] = len(ordered)
            for q in self.quantiles:
                row[quantile_column(q)] = _quantile(ordered, q)
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
    (how workers and checkpoint resumes reconstruct the reducers).

    A key the kind's constructor does not take is refused, so a spec
    this version cannot honour (say, a histogram ``warmup`` from a
    journal written before auto ranges became exact) fails loudly
    instead of folding differently.
    """
    params = dict(spec)
    kind = params.pop("kind", None)
    if kind not in _AGGREGATOR_KINDS:
        raise ConfigurationError(
            f"unknown aggregator kind {kind!r}; "
            f"choose from {', '.join(_AGGREGATOR_KINDS)}"
        )
    cls = _AGGREGATOR_KINDS[kind]
    accepted = inspect.signature(cls).parameters
    unknown = [key for key in params if key not in accepted]
    if unknown:
        raise ConfigurationError(
            f"{kind} aggregator spec has unknown key(s) {', '.join(unknown)}; "
            f"it takes {', '.join(accepted) or 'no keys'}"
        )
    return cls(**params)


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
    the peak-temperature histogram and quantiles, Welford mean/variance
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
