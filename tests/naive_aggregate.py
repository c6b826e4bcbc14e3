"""Reference reducers: the sweep aggregators as streaming folds.

A retained copy of the running reducers the sweep aggregators used
before their tables became functions of the payload list:
``RunningStats`` (count/sum/min/max, NaN skipped), ``WelfordMoments``
(Welford's mean/M2 recurrence) and the P² estimator's rule for streams
of at most five values (linear interpolation over the sorted prefix).
The row builders fold payloads one at a time into those objects and
render rows exactly as the streaming aggregators did. The equivalence
suite pins :mod:`repro.sweep.aggregate`'s scalar, cell and moments rows
to them bitwise, and its quantiles to the prefix rule for groups of up
to five values.
"""

from __future__ import annotations

import bisect
import math
from typing import Optional


class RunningStats:
    """Count/sum/min/max of a scalar stream (NaN values are skipped)."""

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


class WelfordMoments:
    """Welford's online mean/variance of a scalar stream (NaN skipped)."""

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
        if self.count < 2:
            return float("nan")
        return self.m2 / (self.count - 1)

    @property
    def std(self) -> float:
        variance = self.variance
        return math.sqrt(variance) if not math.isnan(variance) else variance


def prefix_quantile(values, p: float) -> float:
    """The P² estimate of quantile ``p`` for a stream of at most five
    values: insort into a sorted prefix, then interpolate linearly at
    ``p * (count - 1)`` (NaN skipped; NaN when empty)."""
    heights: list[float] = []
    for value in map(float, values):
        if not math.isnan(value):
            bisect.insort(heights, value)
    assert len(heights) <= 5, "the prefix rule covers at most five values"
    count = len(heights)
    if count == 0:
        return float("nan")
    scaled = p * (count - 1)
    low = int(scaled)
    frac = scaled - low
    if low + 1 >= count:
        return heights[-1]
    return heights[low] + frac * (heights[low + 1] - heights[low])


def _identity(group_by, key: str) -> dict:
    return dict(zip(group_by, key.split("|"))) if group_by else {"group": key}


def scalar_rows(metrics, group_by, payloads) -> list[dict]:
    """``ScalarAggregator`` rows by streaming ``RunningStats`` folds."""
    groups: dict[str, dict[str, RunningStats]] = {}
    for payload in payloads:
        group = groups.setdefault(
            payload["group"], {m: RunningStats() for m in metrics}
        )
        for metric, value in zip(metrics, payload["values"]):
            group[metric].add(value)
    rows = []
    for key, group in groups.items():
        row: dict = _identity(group_by, key)
        first = next(iter(group.values()), None)
        row["runs"] = first.count if first is not None else 0
        for metric in metrics:
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


def moments_rows(metrics, group_by, payloads) -> list[dict]:
    """``MomentsAggregator`` rows by streaming ``WelfordMoments`` folds."""
    groups: dict[str, dict[str, WelfordMoments]] = {}
    for payload in payloads:
        group = groups.setdefault(
            payload["group"], {m: WelfordMoments() for m in metrics}
        )
        for metric, value in zip(metrics, payload["values"]):
            group[metric].add(value)

    def none_if_nan(value):
        return None if math.isnan(value) else value

    rows = []
    for key, group in groups.items():
        row: dict = _identity(group_by, key)
        first = next(iter(group.values()), None)
        row["runs"] = first.count if first is not None else 0
        for metric in metrics:
            moments = group[metric]
            row[f"{metric}_mean"] = moments.mean if moments.count else None
            row[f"{metric}_var"] = none_if_nan(moments.variance)
            row[f"{metric}_std"] = none_if_nan(moments.std)
        rows.append(row)
    return rows


def cell_rows(payloads) -> list[dict]:
    """``CellAggregator`` rows by streaming ``RunningStats`` folds."""
    means: dict[str, RunningStats] = {}
    peaks: dict[str, RunningStats] = {}
    for payload in payloads:
        for name, mean, peak in payload["units"]:
            means.setdefault(name, RunningStats()).add(mean)
            peaks.setdefault(name, RunningStats()).add(peak)
    return [
        {
            "unit": name,
            "runs": means[name].count,
            "mean_temperature": means[name].mean,
            "peak_temperature": (
                float("nan") if peaks[name].maximum is None else peaks[name].maximum
            ),
        }
        for name in means
    ]
