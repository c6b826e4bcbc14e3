"""Declarative sweeps: lazy axis expansion, exact aggregation,
checkpoint/resume.

The layer the paper's evaluation actually is — figs 6-8, Table II, the
four-layer study are all parameter sweeps over policies, workloads, and
stack geometries. :class:`SweepSpec` declares such a campaign over any
:class:`~repro.sim.config.SimulationConfig` field;
:class:`SweepRunner` executes it through
:class:`repro.runner.BatchRunner` process fan-out, folds each run's
small fold payloads into :class:`Aggregator`\\ s that render exact
summary tables from them, and journals progress to a checkpoint so
interrupted campaigns resume bit-identically. See
:mod:`repro.sweep.runner` for the checkpoint format and
:mod:`repro.io.sweep` for the streaming exporters.
"""

from repro.sweep.aggregate import (
    DEFAULT_METRICS,
    METRICS,
    Aggregator,
    CellAggregator,
    HistogramAggregator,
    MomentsAggregator,
    QuantileAggregator,
    ScalarAggregator,
    aggregate_tables,
    aggregator_from_spec,
    default_aggregators,
    group_key,
)
from repro.sweep.runner import (
    SweepResult,
    SweepRunner,
    SweepStatus,
    read_status,
)
from repro.sweep.spec import SweepPoint, SweepSpec, config_signature, point_key

__all__ = [
    "SweepSpec",
    "SweepPoint",
    "SweepRunner",
    "SweepResult",
    "SweepStatus",
    "read_status",
    "Aggregator",
    "ScalarAggregator",
    "CellAggregator",
    "HistogramAggregator",
    "QuantileAggregator",
    "MomentsAggregator",
    "METRICS",
    "DEFAULT_METRICS",
    "aggregate_tables",
    "aggregator_from_spec",
    "default_aggregators",
    "group_key",
    "config_signature",
    "point_key",
]
