"""The figure table's shared runs."""

import pytest

from counters import Counters
from repro.experiments import run_figures

WORKLOADS = ("gzip", "Web-high")


class TestSharedRuns:
    """Figure 8's and the headline's combos are a subset of Figure 6's:
    one call runs each distinct config once, and every figure's rows
    equal its own single-figure call."""

    NAMES = ("fig6", "fig8", "headline")

    @pytest.fixture(scope="class")
    def shared(self):
        counters = Counters()
        rows = run_figures(list(self.NAMES), duration=1.0, workloads=WORKLOADS)
        return rows, counters.delta("runner.runs")

    def test_each_distinct_config_runs_once(self, shared):
        _, runs = shared
        assert runs == 7 * len(WORKLOADS)  # Figure 6's combos x workloads.

    def test_returns_rows_in_requested_order(self, shared):
        rows, _ = shared
        assert list(rows) == list(self.NAMES)

    @pytest.mark.parametrize("name", NAMES)
    def test_rows_equal_single_figure_call(self, shared, name):
        rows, _ = shared
        alone = run_figures([name], duration=1.0, workloads=WORKLOADS)
        assert rows[name] == alone[name]
