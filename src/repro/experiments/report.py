"""One-shot evaluation report: every table/figure into one markdown file.

``python -c "from pathlib import Path; from repro.experiments.report
import build_report; Path('report.md').write_text(build_report())"``
(or via a longer ``duration``) regenerates the full evaluation as an
EXPERIMENTS.md-style document with the measured numbers — the release
artifact a user diffs against ``EXPERIMENTS.md`` after changing any
model parameter.
"""

from __future__ import annotations

from repro.experiments import ablations, common, fig3, fig5, table2
from repro.experiments.figures import FIGURES, run_figures


def _section(title: str, rows: list[dict]) -> str:
    return f"## {title}\n\n```\n{common.format_rows(rows)}\n```\n"


def build_report(duration: float = common.DEFAULT_DURATION, seed: int = 0) -> str:
    """Run every harness and return the markdown report body.

    The figure sections come from one :func:`run_figures` call, so runs
    that several figures share (Figure 8's and the headline's combos
    are a subset of Figure 6's) execute once.
    """
    figure_rows = run_figures(FIGURES, duration=duration, seed=seed)
    parts = [
        "# Evaluation report",
        "",
        f"Simulated {duration:.0f} s per (policy, workload) point, seed {seed}.",
        "",
        _section("Table II — workload characteristics", table2.run()),
        _section("Figure 3 — pump power and per-cavity flows", fig3.run()),
        _section(
            "Figure 5 — required flow vs T_max (2-layer)",
            fig5.run(2, include_continuous=False),
        ),
        *(_section(FIGURES[name].TITLE, rows) for name, rows in figure_rows.items()),
        _section(
            "Controller vs prior work [6]",
            ablations.run_controller_comparison(duration=duration, seed=seed),
        ),
    ]
    return "\n".join(parts)
