"""Experiment harnesses regenerating every table and figure.

The sweep-backed figures (Figures 6-8, the headline savings and the
4-layer study) are declared once in :data:`FIGURES`; each module there
holds its ``sweep_spec()``, a pure ``rows(results, workloads)`` and
its CLI help, and :func:`run_figures` executes any subset of them.
``fig3``, ``fig5``, ``table2`` and ``ablations`` are not sweeps and
keep their own harness functions. Each returns plain row dicts,
printed with :func:`common.format_rows`. The
pytest-benchmark suite in ``benchmarks/`` calls these, so ``pytest
benchmarks/ --benchmark-only`` regenerates the whole evaluation.
"""

from repro.experiments import (  # noqa: F401
    ablations,
    common,
    fig3,
    fig5,
    fig6,
    fig7,
    fig8,
    figures,
    fourlayer,
    headline,
    sweeps,
    table2,
)
from repro.experiments.figures import FIGURES, run_figures

__all__ = [
    "FIGURES",
    "run_figures",
    "common",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "figures",
    "table2",
    "headline",
    "ablations",
    "fourlayer",
    "sweeps",
]
