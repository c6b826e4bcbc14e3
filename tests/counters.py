"""Work counters for tests, read as telemetry snapshot diffs.

Tests measure solver work the way the benchmarks and CI gates do:
snapshot the process-wide :mod:`repro.telemetry` registry, run the
work, and diff. ``Counters()`` takes the snapshot; its methods report
how far a counter moved since.
"""

from __future__ import annotations

from repro.telemetry import metrics
from repro.thermal.solver import _KRYLOV_STAT_KEYS as KRYLOV_KEYS


class Counters:
    """Counter deltas since construction."""

    def __init__(self) -> None:
        self._before = metrics.snapshot()

    def delta(self, name: str) -> int:
        """How far counter series ``name`` moved since the snapshot."""
        diff = metrics.snapshot_diff(self._before, metrics.snapshot())
        return diff["counters"].get(name, 0)

    def factorizations(self) -> int:
        """Sparse LU factorizations (LU-store misses) since the snapshot."""
        return self.delta("solver.factorizations")

    def krylov(self) -> dict[str, int]:
        """Every ``solver.krylov.*`` counter's movement since the snapshot."""
        return {key: self.delta("solver.krylov." + key) for key in KRYLOV_KEYS}
