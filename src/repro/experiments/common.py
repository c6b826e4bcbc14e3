"""Shared experiment infrastructure: sweep declarations and execution.

Figure 6's seven policy/cooling combinations, the eight Table II
workloads, and the (combo x workload) sweep builder. Every multi-run
experiment is declared once as a :class:`~repro.sweep.spec.SweepSpec`
(:func:`matrix_spec`, or the per-figure ``sweep_spec()`` functions)
and executes through :class:`~repro.runner.BatchRunner`
(:func:`run_spec`), so any figure/table regeneration can fan out over
worker processes by passing ``workers=N``, and large campaigns can be
checkpointed via the ``repro sweep`` CLI. Nothing is memoized
across calls: a figure's rows depend only on its own sweep, and
:func:`repro.experiments.figures.run_figures` runs the configs that
several figures share once.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.sim.config import CoolingMode, PolicyKind, SimulationConfig
from repro.sim.results import SimulationResult
from repro.runner import BatchRunner
from repro.sweep import SweepPoint, SweepSpec
from repro.workload.benchmarks import TABLE_II

#: Figure 6's policy/cooling combinations, in the paper's bar order.
POLICY_MATRIX: tuple[tuple[PolicyKind, CoolingMode], ...] = (
    (PolicyKind.LB, CoolingMode.AIR),
    (PolicyKind.MIGRATION, CoolingMode.AIR),
    (PolicyKind.TALB, CoolingMode.AIR),
    (PolicyKind.LB, CoolingMode.LIQUID_MAX),
    (PolicyKind.MIGRATION, CoolingMode.LIQUID_MAX),
    (PolicyKind.TALB, CoolingMode.LIQUID_MAX),
    (PolicyKind.TALB, CoolingMode.LIQUID_VARIABLE),
)

#: All Table II workloads, in table order.
ALL_WORKLOADS: tuple[str, ...] = tuple(TABLE_II)

#: Default simulated seconds per (policy, workload) point. Short enough
#: for the benchmark suite, long enough for stationary statistics.
DEFAULT_DURATION = 20.0


def combo_label(policy, cooling: CoolingMode) -> str:
    """Figure-style label, e.g. ``"TALB (Var)"``.

    ``policy`` is a registry key or a legacy :class:`PolicyKind` member.
    """
    return f"{getattr(policy, 'value', policy)} ({cooling.value})"


def matrix_spec(
    combos: Iterable[tuple[PolicyKind, CoolingMode]] = POLICY_MATRIX,
    workloads: Iterable[str] = ALL_WORKLOADS,
    duration: float = DEFAULT_DURATION,
    dpm: bool = False,
    n_layers: int = 2,
    seed: int = 0,
    name: str = "matrix",
) -> SweepSpec:
    """The (combo x workload) figure sweeps as a declarative spec.

    The policy/cooling combos become explicit sweep ``points`` (they
    are an irregular set, not a product) crossed with a workload grid
    axis — the declaration the ``repro sweep`` CLI and the figure
    modules share.
    """
    return SweepSpec(
        base=SimulationConfig(
            duration=duration, dpm_enabled=dpm, n_layers=n_layers, seed=seed
        ),
        points=[{"policy": p, "cooling": c} for p, c in combos],
        grid={"benchmark_name": list(workloads)},
        name=name,
    )


def run_spec(
    spec: SweepSpec, workers: Optional[int] = None
) -> list[tuple[SweepPoint, SimulationResult]]:
    """Execute a spec and collect (point, result) in run order.

    The direct execution path for the modest experiment sweeps that
    need full results in memory; long campaigns should instead go
    through :class:`~repro.sweep.runner.SweepRunner` with aggregators
    and a checkpoint (``repro sweep run``).
    """
    spec.validate_all()
    points = list(spec.iter_points())
    runs = BatchRunner(
        [point.config for point in points], max_workers=workers
    ).iter_runs()
    return [(point, run.result) for point, run in zip(points, runs)]


def run_labelled(
    spec: SweepSpec, workers: Optional[int] = None
) -> dict[tuple[str, str], SimulationResult]:
    """Execute a :func:`matrix_spec`; results keyed by (label, workload)."""
    return {
        (point.config.label(), point.config.benchmark_name): result
        for point, result in run_spec(spec, workers=workers)
    }


def spec_labels(spec: SweepSpec) -> list[str]:
    """A :func:`matrix_spec`'s combo labels, in declaration order."""
    return [combo_label(point["policy"], point["cooling"]) for point in spec.points]


def setting_switches(flow_setting: np.ndarray) -> int:
    """How often a run's pump setting changed; air samples (``-1``)
    are skipped."""
    valid = flow_setting[flow_setting >= 0]
    if len(valid) < 2:
        return 0
    return int(np.sum(np.diff(valid) != 0))


def format_rows(rows: list[dict], columns: Optional[list[str]] = None) -> str:
    """Render result rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    columns = columns or list(rows[0])
    widths = {
        c: max(len(c), *(len(_fmt(r.get(c, ""))) for r in rows)) for c in columns
    }
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append("  ".join(_fmt(row.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
