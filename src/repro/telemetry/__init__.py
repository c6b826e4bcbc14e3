"""repro.telemetry — unified metrics registry and span tracing.

The one instrumentation layer every subsystem reports through instead
of growing new module globals (ROADMAP policy since PR 9):

* :mod:`repro.telemetry.metrics` — process-wide named counters,
  gauges, and timer histograms with labeled series, a snapshot/diff
  API, and cross-process merge;
* :mod:`repro.telemetry.trace` — ``span()`` context managers feeding a
  bounded ring buffer, JSONL export, and schema validation. Disabled
  by default at near-zero overhead.

Typical use::

    from repro import telemetry

    telemetry.counter("solver.factorizations").inc()
    with telemetry.span("factorize", kind="steady", digest=d) as sp:
        lu = splu(matrix)
        sp.set_attrs(nnz=int(matrix.nnz))

Metric naming convention: dotted ``subsystem.event`` names
(``solver.factorizations``, ``cache.characterization.hits``), labels
for dimensions (``tier=krylov``, ``mode=block``); span-derived timers
are automatically published as ``span.<name>``.
"""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    Timer,
    counter,
    gauge,
    merge,
    registry,
    reset,
    snapshot,
    snapshot_diff,
    timer,
)
from repro.telemetry.trace import (
    DEFAULT_CAPACITY,
    SPAN_REQUIRED_KEYS,
    TRACE_FORMAT,
    TRACE_VERSION,
    Span,
    TraceReport,
    clear,
    disable,
    enable,
    enabled,
    events,
    export_trace,
    install_trace_context,
    span,
    trace_context,
    validate_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Timer",
    "counter",
    "gauge",
    "merge",
    "registry",
    "reset",
    "snapshot",
    "snapshot_diff",
    "timer",
    "DEFAULT_CAPACITY",
    "SPAN_REQUIRED_KEYS",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "Span",
    "TraceReport",
    "clear",
    "disable",
    "enable",
    "enabled",
    "events",
    "export_trace",
    "install_trace_context",
    "span",
    "trace_context",
    "validate_trace",
]
