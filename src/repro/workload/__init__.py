"""Workload substrate: Table II benchmarks, threads, traces, models.

Workload *models* (how a run's thread trace is built) are registered
components — importing :mod:`repro.workload.models` below runs their
registrations, the same at-import idiom the scheduler policies use.
"""

from repro.workload.benchmarks import TABLE_II, BenchmarkSpec, benchmark
from repro.workload.generator import ThreadTrace, WorkloadGenerator
from repro.workload.threads import Thread
from repro.workload.traces import UtilizationTrace, generate_from_utilization
from repro.workload.models import SAMPLE_TRACE_PATH, WorkloadModel

__all__ = [
    "BenchmarkSpec",
    "TABLE_II",
    "benchmark",
    "Thread",
    "WorkloadGenerator",
    "ThreadTrace",
    "UtilizationTrace",
    "generate_from_utilization",
    "WorkloadModel",
    "SAMPLE_TRACE_PATH",
]
