"""One-shot evaluation report: every table/figure into one markdown file.

``python -c "from repro.experiments.report import write_report;
write_report('report.md')"`` (or via a longer ``duration``) regenerates
the full evaluation and writes an EXPERIMENTS.md-style document with
the measured numbers — the release artifact a user diffs against
``EXPERIMENTS.md`` after changing any model parameter.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.experiments import (
    ablations,
    common,
    fig3,
    fig5,
    fig6,
    fig7,
    fig8,
    fourlayer,
    headline,
    table2,
)


def _section(title: str, rows: list[dict]) -> str:
    return f"## {title}\n\n```\n{common.format_rows(rows)}\n```\n"


def build_report(duration: float = common.DEFAULT_DURATION, seed: int = 0) -> str:
    """Run every harness and return the markdown report body.

    Figure 8's and the headline's combos are subsets of Figure 6's on
    the same base config, so Figure 6's sweep runs once and all three
    read their rows off its results.
    """
    workloads = common.ALL_WORKLOADS
    shared = common.run_labelled(
        fig6.sweep_spec(duration=duration, workloads=workloads, seed=seed)
    )
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
        _section("Figure 6 — hot spots and energy", fig6.rows(shared, workloads)),
        _section(
            "Figure 7 — thermal variations (DPM on)",
            fig7.run(duration=duration, seed=seed),
        ),
        _section("Figure 8 — performance and energy", fig8.rows(shared, workloads)),
        _section(
            "Headline — savings vs maximum flow", headline.rows(shared, workloads)
        ),
        _section(
            "4-layer system (light workloads)",
            fourlayer.run(duration=duration, seed=seed),
        ),
        _section(
            "Controller vs prior work [6]",
            ablations.run_controller_comparison(duration=duration, seed=seed),
        ),
    ]
    return "\n".join(parts)


def write_report(
    path: Union[str, Path],
    duration: float = common.DEFAULT_DURATION,
    seed: int = 0,
) -> Path:
    """Build the report and write it to ``path``; returns the path."""
    path = Path(path)
    path.write_text(build_report(duration=duration, seed=seed))
    return path
