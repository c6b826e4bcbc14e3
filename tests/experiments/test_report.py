"""The one-shot evaluation report generator and its shared sweep."""

import pytest

from repro.experiments import common, fig6, fig8, headline
from repro.experiments.report import write_report

WORKLOADS = ("gzip", "Web-high")


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    path = write_report(tmp_path_factory.mktemp("report") / "report.md", duration=6.0)
    return path.read_text()


@pytest.mark.slow
class TestReport:
    def test_report_contains_every_section(self, report):
        for heading in (
            "Table II",
            "Figure 3",
            "Figure 5",
            "Figure 6",
            "Figure 7",
            "Figure 8",
            "Headline",
            "4-layer",
            "prior work",
        ):
            assert heading in report

    def test_report_is_markdown(self, report):
        assert report.startswith("# Evaluation report")
        assert "```" in report


class TestSharedSweep:
    """The report reads Figure 8's and the headline's rows off Figure
    6's sweep; that must equal running each figure's own sweep."""

    @pytest.fixture(scope="class")
    def shared(self):
        spec = fig6.sweep_spec(duration=2.0, workloads=WORKLOADS)
        return common.run_labelled(spec)

    def test_fig8_rows_from_fig6_sweep(self, shared):
        assert fig8.rows(shared, WORKLOADS) == fig8.run(duration=2.0, workloads=WORKLOADS)

    def test_headline_rows_from_fig6_sweep(self, shared):
        assert headline.rows(shared, WORKLOADS) == headline.run(
            duration=2.0, workloads=WORKLOADS
        )
