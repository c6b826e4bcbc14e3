"""Span tracing: bounded in-memory ring buffer + JSONL export.

Disabled by default and near-zero overhead when disabled —
:func:`span` then returns a shared no-op context manager after one
module-flag check, so instrumented hot loops (``Simulator.step``,
GMRES solves) cost one function call per site. Enabling
(:func:`enable`, or the ``--trace PATH`` CLI flags) makes each span
record a structured event::

    {"kind": "span", "name": "factorize", "span": 7, "parent": 3,
     "t_start": <perf_counter>, "duration_s": 0.0123,
     "pid": 1234, "thread": 5678, "attrs": {...}}

into a bounded ``deque`` (oldest events drop past ``capacity``) and
feed a ``span.<name>`` timer histogram in the metrics registry. Parent
ids come from a thread-local stack, so spans nest naturally within a
thread; events are appended on span *exit*, so children precede their
parents in the buffer and in exported files.

Export (:func:`export_trace`) writes a self-describing JSONL file via
:mod:`repro.io.jsonl` — a header line, one line per span, and a final
``metrics`` line carrying the registry snapshot. :func:`validate_trace`
re-reads such a file and checks the documented schema: every line
parses, required keys and attributes present, ids unique, and every
span's interval nested within its parent's. Tracing never touches
simulation state, so outputs are byte-identical with tracing on or off.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.telemetry import metrics as _metrics

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1

#: Ring-buffer capacity when :func:`enable` is called without one.
DEFAULT_CAPACITY = 65536

#: Keys every exported span line must carry (``attrs`` is optional).
SPAN_REQUIRED_KEYS = (
    "name", "span", "parent", "t_start", "duration_s", "pid", "thread",
)

#: Attributes a span must carry, by span name: every LU factorization
#: names its tier, its SuperLU mode (``symmetric`` or ``pivoted``) and
#: the digest of the matrix it factorized, so a repeated digest exposes
#: a duplicate LU.
SPAN_REQUIRED_ATTRS = {"factorize": ("kind", "ordering", "digest")}

#: Slack (seconds) allowed when checking child-within-parent nesting;
#: covers perf_counter quantization, not real misnesting.
NESTING_TOLERANCE_S = 1.0e-6

_lock = threading.Lock()
_enabled = False
_events: Optional[deque] = None
_next_id = 1
_worker_label = ""
_tls = threading.local()


class _NullSpan:
    """Shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set_attrs(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


def enabled() -> bool:
    """Whether span tracing is currently recording."""
    return _enabled


def enable(capacity: int = DEFAULT_CAPACITY, worker: str = "") -> None:
    """Start recording spans into a ring buffer of ``capacity`` events."""
    global _enabled, _events, _worker_label
    if capacity < 1:
        raise ValueError("trace capacity must be >= 1")
    with _lock:
        if _events is None or _events.maxlen != capacity:
            _events = deque(_events or (), maxlen=capacity)
        if worker:
            _worker_label = worker
        _enabled = True


def disable() -> None:
    """Stop recording (buffered events remain until :func:`clear`)."""
    global _enabled
    _enabled = False


def clear() -> None:
    """Drop every buffered event."""
    with _lock:
        if _events is not None:
            _events.clear()


def events() -> list[dict]:
    """A copy of the buffered span events (oldest first)."""
    with _lock:
        return list(_events or ())


def _alloc_id() -> int:
    global _next_id
    with _lock:
        span_id = _next_id
        _next_id += 1
        return span_id


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    try:  # numpy scalars and friends
        return _jsonable(value.item())
    except AttributeError:
        return str(value)


class Span:
    """A live span; use via ``with telemetry.span(name, **attrs):``."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "t_start", "_t0")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: Optional[int] = None

    def set_attrs(self, **attrs) -> None:
        """Attach attributes discovered mid-span (e.g. GMRES iterations)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        stack = getattr(_tls, "stack", None)
        if stack is None:
            stack = _tls.stack = []
        self.span_id = _alloc_id()
        self.parent_id = stack[-1].span_id if stack else None
        stack.append(self)
        self._t0 = self.t_start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        duration = time.perf_counter() - self._t0
        stack = getattr(_tls, "stack", None)
        if stack and stack[-1] is self:
            stack.pop()
        event = {
            "name": self.name,
            "span": self.span_id,
            "parent": self.parent_id,
            "t_start": self.t_start,
            "duration_s": duration,
            "pid": os.getpid(),
            "thread": threading.get_ident(),
        }
        if self.attrs:
            event["attrs"] = {
                key: _jsonable(value) for key, value in self.attrs.items()
            }
        with _lock:
            if _enabled and _events is not None:
                _events.append(event)
        _metrics.timer("span." + self.name).observe(duration)
        return False


def span(name: str, **attrs) -> Union[Span, _NullSpan]:
    """A tracing span, or the shared no-op when tracing is disabled."""
    if not _enabled:
        return _NULL_SPAN
    return Span(name, attrs)


# --- cross-process propagation ------------------------------------------------


def trace_context() -> Optional[dict]:
    """Picklable context shipped to worker processes (None = tracing off).

    Workers call :func:`install_trace_context` with it; their spans
    feed their own ring buffers and ``span.*`` timers, and their metric
    deltas travel back alongside fold payloads for the coordinating
    process to :func:`repro.telemetry.metrics.merge`.
    """
    if not _enabled:
        return None
    with _lock:
        capacity = _events.maxlen if _events is not None else DEFAULT_CAPACITY
    return {"enabled": True, "capacity": capacity, "worker": _worker_label}


def install_trace_context(context: Optional[dict]) -> None:
    """Activate a :func:`trace_context` inside a worker process."""
    if context and context.get("enabled"):
        enable(
            capacity=int(context.get("capacity") or DEFAULT_CAPACITY),
            worker=str(context.get("worker") or ""),
        )


# --- export -------------------------------------------------------------------


def export_trace(path: Union[str, Path], worker: str = "") -> Path:
    """Write header + buffered spans + metrics snapshot as JSONL.

    Atomic (:func:`repro.io.jsonl.atomic_write_text`); re-exporting
    overwrites.
    """
    from repro.io.jsonl import atomic_write_text, json_line

    recorded = events()
    header = {
        "kind": "header",
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "pid": os.getpid(),
        "worker": worker or _worker_label,
        "n_spans": len(recorded),
        "unix_time": time.time(),
    }
    metrics_line = {
        "kind": "metrics",
        "pid": os.getpid(),
        "snapshot": _metrics.snapshot(),
    }
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    lines = [header]
    lines.extend({"kind": "span", **event} for event in recorded)
    lines.append(metrics_line)
    text = "".join(json_line(payload) + "\n" for payload in lines)
    atomic_write_text(path, text)
    return path


# --- validation / summary -----------------------------------------------------


@dataclass
class TraceReport:
    """Result of validating (and summarizing) a trace JSONL file."""

    path: Path
    n_spans: int = 0
    errors: list = field(default_factory=list)
    #: per span-name aggregate: {"count": int, "total_s": float}
    span_totals: dict = field(default_factory=dict)
    #: the final metrics snapshot line, if present
    metrics: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_trace(path: Union[str, Path]) -> TraceReport:
    """Check a trace file against the documented schema.

    Collects (rather than raises) every violation: unparseable lines,
    missing header, unknown line kinds, missing span keys or required
    attributes (:data:`SPAN_REQUIRED_ATTRS`), duplicate span ids,
    dangling parents, and spans not nested within their parent's
    interval.
    """
    from repro.io.jsonl import read_jsonl

    path = Path(path)
    report = TraceReport(path=path)
    document = read_jsonl(path)
    if document.torn:
        report.errors.append(f"unparseable line: {document.torn_line[:80]!r}")
    entries = document.entries
    if not entries:
        report.errors.append("empty trace file")
        return report
    header = entries[0]
    if header.get("kind") != "header" or header.get("format") != TRACE_FORMAT:
        report.errors.append("first line is not a repro-trace header")
    elif header.get("version") != TRACE_VERSION:
        report.errors.append(
            f"unsupported trace version {header.get('version')!r}"
        )
    spans: dict[int, dict] = {}
    for lineno, entry in enumerate(entries[1:], start=2):
        kind = entry.get("kind")
        if kind == "metrics":
            snapshot = entry.get("snapshot")
            if not isinstance(snapshot, dict):
                report.errors.append(f"line {lineno}: metrics line has no snapshot")
            else:
                report.metrics = snapshot
            continue
        if kind != "span":
            report.errors.append(f"line {lineno}: unknown kind {kind!r}")
            continue
        missing = [key for key in SPAN_REQUIRED_KEYS if key not in entry]
        if missing:
            report.errors.append(
                f"line {lineno}: span missing keys {', '.join(missing)}"
            )
            continue
        absent = [
            key for key in SPAN_REQUIRED_ATTRS.get(entry["name"], ())
            if key not in (entry.get("attrs") or {})
        ]
        if absent:
            report.errors.append(
                f"line {lineno}: {entry['name']} span missing attrs"
                f" {', '.join(absent)}"
            )
        span_id = entry["span"]
        if span_id in spans:
            report.errors.append(f"line {lineno}: duplicate span id {span_id}")
            continue
        spans[span_id] = entry
        name = entry["name"]
        agg = report.span_totals.setdefault(name, {"count": 0, "total_s": 0.0})
        agg["count"] += 1
        agg["total_s"] += float(entry["duration_s"])
    report.n_spans = len(spans)
    for entry in spans.values():
        parent_id = entry["parent"]
        if parent_id is None:
            continue
        parent = spans.get(parent_id)
        if parent is None:
            # The ring buffer may have evicted an old parent; only flag
            # parents that could never have been exported (>= own id).
            if parent_id >= entry["span"]:
                report.errors.append(
                    f"span {entry['span']}: dangling parent {parent_id}"
                )
            continue
        if (parent["pid"], parent["thread"]) != (entry["pid"], entry["thread"]):
            report.errors.append(
                f"span {entry['span']}: parent {parent_id} on another thread"
            )
            continue
        child_start = float(entry["t_start"])
        child_end = child_start + float(entry["duration_s"])
        parent_start = float(parent["t_start"])
        parent_end = parent_start + float(parent["duration_s"])
        if (
            child_start < parent_start - NESTING_TOLERANCE_S
            or child_end > parent_end + NESTING_TOLERANCE_S
        ):
            report.errors.append(
                f"span {entry['span']} ({entry['name']}) not nested within"
                f" parent {parent_id} ({parent['name']})"
            )
    return report
