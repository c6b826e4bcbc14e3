"""Process-wide metrics registry: counters, gauges, timer histograms.

One registry per process (module-level default, accessible through
:func:`registry`), holding three metric families:

* **counters** — monotonic integers (``solver.factorizations``);
* **gauges** — last-write-wins floats (``cache.systems``);
* **timers** — duration histograms (``span.step``): count, total,
  min/max, and fixed log-spaced buckets.

Metric handles are cheap named views onto the registry; every mutation
takes the registry lock, so increments are safe from any thread (the
planned async digital-twin service constructs solvers concurrently).
Series are keyed by ``name`` plus optional labels
(``counter("runs").inc(tier="krylov")`` writes the
``runs{tier=krylov}`` series), so one metric can carry dimensions such
as solver tier, cache kind, or grid shape without new globals.

Measurement is snapshot-based: :func:`snapshot` returns a plain,
deterministically-ordered JSON-able dict, :func:`snapshot_diff`
subtracts two of them, and :meth:`MetricsRegistry.merge` folds a diff
from another process back in — the transport the batch runner and
``repro.dist`` use to aggregate worker counters into one campaign
report.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

#: Upper bounds (seconds) of the timer histogram buckets; observations
#: beyond the last bound land in the implicit ``+inf`` bucket.
TIMER_BUCKET_BOUNDS = (
    1.0e-5, 1.0e-4, 1.0e-3, 1.0e-2, 1.0e-1, 1.0, 10.0, 100.0,
)

_BUCKET_KEYS = tuple(f"{bound:g}" for bound in TIMER_BUCKET_BOUNDS) + ("+inf",)


def series_key(name: str, labels: dict) -> str:
    """The storage key for a metric series: ``name{k=v,...}``.

    Labels are sorted so the key (and therefore every snapshot) is
    deterministic regardless of call-site keyword order.
    """
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class _TimerState:
    """Mutable histogram accumulator for one timer series."""

    __slots__ = ("count", "total", "minimum", "maximum", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = 0.0
        self.buckets = [0] * len(_BUCKET_KEYS)

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.minimum:
            self.minimum = seconds
        if seconds > self.maximum:
            self.maximum = seconds
        for i, bound in enumerate(TIMER_BUCKET_BOUNDS):
            if seconds <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total,
            "min_s": self.minimum,
            "max_s": self.maximum,
            "buckets": {
                key: n for key, n in zip(_BUCKET_KEYS, self.buckets) if n
            },
        }


class Counter:
    """A named monotonic counter (a view onto its registry)."""

    __slots__ = ("name", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry

    def inc(self, amount: int = 1, **labels) -> None:
        """Add ``amount`` to the series selected by ``labels``."""
        self._registry._add_counter(series_key(self.name, labels), amount)

    def value(self, **labels) -> int:
        """Current value of one series (0 if never incremented)."""
        return self._registry._counter_value(series_key(self.name, labels))

    def total(self) -> int:
        """Sum across every label series of this counter."""
        return self._registry._counter_total(self.name)


class Gauge:
    """A named last-write-wins float."""

    __slots__ = ("name", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry

    def set(self, value: float, **labels) -> None:
        self._registry._set_gauge(series_key(self.name, labels), float(value))

    def value(self, **labels) -> float:
        return self._registry._gauge_value(series_key(self.name, labels))


class Timer:
    """A named duration histogram."""

    __slots__ = ("name", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry

    def observe(self, seconds: float, **labels) -> None:
        self._registry._observe_timer(series_key(self.name, labels), seconds)

    def time(self, **labels) -> "_TimerContext":
        """Context manager observing the wrapped block's duration."""
        return _TimerContext(self, labels)

    def stats(self, **labels) -> Optional[dict]:
        """Histogram dict for one series, or ``None`` if never observed."""
        return self._registry._timer_stats(series_key(self.name, labels))


class _TimerContext:
    __slots__ = ("_timer", "_labels", "_t0")

    def __init__(self, timer: Timer, labels: dict) -> None:
        self._timer = timer
        self._labels = labels

    def __enter__(self) -> "_TimerContext":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._timer.observe(time.perf_counter() - self._t0, **self._labels)
        return False


class MetricsRegistry:
    """Thread-safe store behind the counter/gauge/timer handles."""

    def __init__(self) -> None:
        # Reentrant: a gauge may be set from a weakref finalizer, which
        # garbage collection can run inside a locked region.
        self._lock = threading.RLock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, _TimerState] = {}
        self._handles: dict[tuple[str, str], object] = {}
        self._local_gauges: set[str] = set()

    # --- handle factories -----------------------------------------------------

    def counter(self, name: str) -> Counter:
        return self._handle("counter", name, Counter)

    def gauge(self, name: str, local: bool = False) -> Gauge:
        """A gauge handle; ``local`` marks one that reads this
        process's own state, which :meth:`merge` never overwrites."""
        if local:
            with self._lock:
                self._local_gauges.add(name)
        return self._handle("gauge", name, Gauge)

    def timer(self, name: str) -> Timer:
        return self._handle("timer", name, Timer)

    def _handle(self, kind: str, name: str, cls):
        key = (kind, name)
        handle = self._handles.get(key)
        if handle is None:
            with self._lock:
                handle = self._handles.setdefault(key, cls(name, self))
        return handle

    # --- mutation (called by handles) -----------------------------------------

    def _add_counter(self, key: str, amount: int) -> None:
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + int(amount)

    def _counter_value(self, key: str) -> int:
        with self._lock:
            return self._counters.get(key, 0)

    def _counter_total(self, name: str) -> int:
        prefix = name + "{"
        with self._lock:
            return sum(
                value for key, value in self._counters.items()
                if key == name or key.startswith(prefix)
            )

    def _set_gauge(self, key: str, value: float) -> None:
        with self._lock:
            self._gauges[key] = value

    def _gauge_value(self, key: str) -> float:
        with self._lock:
            return self._gauges.get(key, 0.0)

    def _observe_timer(self, key: str, seconds: float) -> None:
        with self._lock:
            state = self._timers.get(key)
            if state is None:
                state = self._timers[key] = _TimerState()
            state.observe(float(seconds))

    def _timer_stats(self, key: str) -> Optional[dict]:
        with self._lock:
            state = self._timers.get(key)
            return None if state is None else state.to_dict()

    # --- snapshot / merge / reset ---------------------------------------------

    def snapshot(self) -> dict:
        """Plain JSON-able copy of every series, deterministically ordered.

        Two snapshots of the same state compare equal; keys are sorted
        so serialized snapshots are byte-stable.
        """
        with self._lock:
            return {
                "counters": {k: self._counters[k] for k in sorted(self._counters)},
                "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
                "timers": {
                    k: self._timers[k].to_dict() for k in sorted(self._timers)
                },
            }

    def merge(self, delta: dict) -> None:
        """Fold a snapshot (or snapshot diff) from another process in.

        Counters and timer histograms add; gauges last-write-win,
        except local ones (``gauge(name, local=True)``), which keep
        reading this process's own state. This is how per-worker metric
        deltas shipped alongside fold payloads aggregate into the
        coordinating process's registry.
        """
        with self._lock:
            for key, value in (delta.get("counters") or {}).items():
                self._counters[key] = self._counters.get(key, 0) + int(value)
            for key, value in (delta.get("gauges") or {}).items():
                if key.partition("{")[0] not in self._local_gauges:
                    self._gauges[key] = float(value)
            for key, stats in (delta.get("timers") or {}).items():
                state = self._timers.get(key)
                if state is None:
                    state = self._timers[key] = _TimerState()
                state.count += int(stats.get("count", 0))
                state.total += float(stats.get("total_s", 0.0))
                state.minimum = min(state.minimum, float(stats.get("min_s", float("inf"))))
                state.maximum = max(state.maximum, float(stats.get("max_s", 0.0)))
                for i, bucket_key in enumerate(_BUCKET_KEYS):
                    state.buckets[i] += int((stats.get("buckets") or {}).get(bucket_key, 0))

    def reset(self) -> None:
        """Zero every series (tests and benchmark scopes only)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()


def snapshot_diff(before: dict, after: dict) -> dict:
    """The metric activity between two snapshots, as a snapshot-shaped
    dict suitable for :meth:`MetricsRegistry.merge`.

    Counters and timer histograms subtract (zero-delta series are
    dropped); gauges take the ``after`` value. Deterministic: sorted
    keys, plain numbers.
    """
    counters = {}
    for key in sorted(after.get("counters", {})):
        delta = after["counters"][key] - before.get("counters", {}).get(key, 0)
        if delta:
            counters[key] = delta
    timers = {}
    for key in sorted(after.get("timers", {})):
        cur = after["timers"][key]
        prev = before.get("timers", {}).get(key)
        if prev is None:
            if cur.get("count"):
                timers[key] = dict(cur, buckets=dict(cur.get("buckets", {})))
            continue
        count = cur["count"] - prev["count"]
        if not count:
            continue
        buckets = {}
        for bucket_key in _BUCKET_KEYS:
            n = cur.get("buckets", {}).get(bucket_key, 0) - prev.get("buckets", {}).get(bucket_key, 0)
            if n:
                buckets[bucket_key] = n
        timers[key] = {
            "count": count,
            "total_s": cur["total_s"] - prev["total_s"],
            # Min/max are not differencable; report the window's bounds
            # conservatively as the after-side observations.
            "min_s": cur["min_s"],
            "max_s": cur["max_s"],
            "buckets": buckets,
        }
    gauges = {key: after["gauges"][key] for key in sorted(after.get("gauges", {}))}
    return {"counters": counters, "gauges": gauges, "timers": timers}


_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _registry


def counter(name: str) -> Counter:
    """Named counter on the process registry."""
    return _registry.counter(name)


def gauge(name: str, local: bool = False) -> Gauge:
    """Named gauge on the process registry (see
    :meth:`MetricsRegistry.gauge`)."""
    return _registry.gauge(name, local)


def timer(name: str) -> Timer:
    """Named timer histogram on the process registry."""
    return _registry.timer(name)


def snapshot() -> dict:
    """Snapshot of the process registry (see :meth:`MetricsRegistry.snapshot`)."""
    return _registry.snapshot()


def merge(delta: dict) -> None:
    """Fold another process's snapshot diff into the process registry."""
    _registry.merge(delta)


def reset() -> None:
    """Zero the process registry (tests and benchmark scopes only)."""
    _registry.reset()
