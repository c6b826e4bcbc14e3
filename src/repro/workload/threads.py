"""Thread abstraction for the multi-queue scheduler substrate.

The paper assumes "short threads, which is a common scenario in server
workloads": continuous execution times of "a few to several hundred
milliseconds" (measured with DTrace on real T1 workloads), with similar
lengths within a workload, so queue length in threads is the load metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import WorkloadError

DONE_TOLERANCE = 1.0e-12
"""Remaining execution time (s) at or below which a thread is done."""


@dataclass
class Thread:
    """A schedulable unit of work.

    Attributes
    ----------
    thread_id:
        Unique identifier (generation order).
    arrival:
        Arrival time, s.
    length:
        Total execution time required, s.
    remaining:
        Execution time still owed, s (mutated by the scheduler).
    migrations:
        Number of times the thread changed cores (performance
        accounting for the migration policy's overhead).
    """

    thread_id: int
    arrival: float
    length: float
    remaining: float = field(default=-1.0)
    migrations: int = 0

    def __post_init__(self) -> None:
        if self.length <= 0.0:
            raise WorkloadError(f"thread {self.thread_id}: length must be positive")
        if self.arrival < 0.0:
            raise WorkloadError(f"thread {self.thread_id}: arrival must be >= 0")
        if self.remaining < 0.0:
            self.remaining = self.length

    @property
    def done(self) -> bool:
        """Whether the thread has finished executing."""
        return self.remaining <= DONE_TOLERANCE

    def execute(self, quantum: float) -> float:
        """Run for up to ``quantum`` seconds; returns time consumed."""
        if quantum < 0.0:
            raise WorkloadError("quantum must be non-negative")
        used = min(self.remaining, quantum)
        self.remaining -= used
        return used
