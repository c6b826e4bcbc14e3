"""Throttled progress reporting (rate limit, quiet, final summary)."""

import io

from repro.progress import ProgressReporter


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make(total=100, quiet=False, min_interval=0.25, label="sweep"):
    stream = io.StringIO()
    clock = FakeClock()
    reporter = ProgressReporter(
        total, label=label, stream=stream, min_interval=min_interval,
        quiet=quiet, clock=clock,
    )
    return reporter, stream, clock


class TestThrottling:
    def test_first_update_prints(self):
        reporter, stream, _ = make()
        reporter.update(1, "run 1")
        assert "sweep: 1/100 (1%)" in stream.getvalue()
        assert "run 1" in stream.getvalue()

    def test_updates_inside_interval_are_swallowed(self):
        reporter, stream, clock = make(min_interval=0.25)
        for i in range(50):
            reporter.update(i + 1)
            clock.advance(0.001)  # 1000 folds/s — must not print 1000 lines
        assert len(stream.getvalue().splitlines()) == 1

    def test_updates_past_interval_print(self):
        reporter, stream, clock = make(min_interval=0.25)
        reporter.update(1)
        clock.advance(0.3)
        reporter.update(2)
        clock.advance(0.1)
        reporter.update(3)  # throttled
        assert len(stream.getvalue().splitlines()) == 2

    def test_finish_bypasses_rate_limit(self):
        """The stream must never end on a stale intermediate count."""
        reporter, stream, clock = make(min_interval=10.0)
        reporter.update(1)
        reporter.finish(100)
        assert "100/100 (100%)" in stream.getvalue()

    def test_finish_reports_elapsed(self):
        reporter, stream, clock = make()
        clock.advance(3.0)
        reporter.finish(100)
        assert "3.0s" in stream.getvalue()


class TestQuiet:
    def test_quiet_silences_updates_and_finish(self):
        """Quiet mode is fully silent on the progress stream — the CLI
        commands print their own stdout summary instead."""
        reporter, stream, _ = make(quiet=True)
        for i in range(10):
            reporter.update(i + 1)
        reporter.finish(10)
        assert stream.getvalue() == ""


class TestFormatting:
    def test_unknown_total_omits_percentage(self):
        reporter, stream, _ = make(total=0, label="dist")
        reporter.update(7, "shard 3")
        text = stream.getvalue()
        assert "dist: 7" in text
        assert "%" not in text

    def test_no_label(self):
        reporter, stream, _ = make(label="")
        reporter.update(5)
        assert stream.getvalue().strip().startswith("5/100")
