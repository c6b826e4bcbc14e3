"""The sweep-backed figures, declared once.

:data:`FIGURES` maps each figure's name to its module. A figure
module holds the figure's ``sweep_spec()`` (the spec ``repro sweep run
--spec <name>`` runs), a pure ``rows(results, workloads)`` over
``(label, workload)``-keyed results and its ``repro <name>`` help text
``HELP``. The CLI's figure commands and built-in specs and the figure
benchmarks all iterate this table.

:func:`run_figures` executes any subset of it. Figures whose sweeps
overlap (Figure 8's and the headline's combos are a subset of Figure
6's on the same base config) share runs: each distinct config runs
once. Nothing is kept between calls, so a figure's rows never depend
on what ran earlier in the process.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.experiments import common, fig6, fig7, fig8, fourlayer, headline
from repro.runner import BatchRunner

FIGURES = {
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "headline": headline,
    "fourlayer": fourlayer,
}


def run_figures(
    names: Iterable[str],
    duration: float = common.DEFAULT_DURATION,
    seed: int = 0,
    workers: Optional[int] = None,
    workloads: Optional[tuple[str, ...]] = None,
) -> dict[str, list[dict]]:
    """Each named figure's rows, keyed by name in the order given.

    ``workloads=None`` keeps each figure's own default workload set.
    Every distinct config of the requested sweeps runs once, in one
    :class:`~repro.runner.BatchRunner` batch over ``workers`` processes.
    """
    kwargs = {"duration": duration, "seed": seed}
    if workloads is not None:
        kwargs["workloads"] = tuple(workloads)
    specs = {name: FIGURES[name].sweep_spec(**kwargs) for name in names}
    points = {}
    for name, spec in specs.items():
        spec.validate_all()
        points[name] = list(spec.iter_points())
    configs = list(dict.fromkeys(p.config for pts in points.values() for p in pts))
    runs = BatchRunner(configs, max_workers=workers).iter_runs()
    results = {config: run.result for config, run in zip(configs, runs)}
    return {
        name: FIGURES[name].rows(
            {
                (p.config.label(), p.config.benchmark_name): results[p.config]
                for p in points[name]
            },
            tuple(specs[name].grid["benchmark_name"]),
        )
        for name in specs
    }
