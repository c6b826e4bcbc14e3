"""Span tracing: null path, nesting, ring buffer, export/validate."""

import json
import time

import pytest

from repro.io.jsonl import json_line
from repro.telemetry import trace


@pytest.fixture
def tracing():
    """Enable tracing for one test, restoring the disabled default."""
    trace.enable(capacity=4096)
    trace.clear()
    yield trace
    trace.disable()
    trace.clear()


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert not trace.enabled()

    def test_span_returns_shared_noop_singleton(self):
        """The overhead guard: while disabled, span() allocates nothing —
        every call returns the one module-level null span."""
        a = trace.span("assemble")
        b = trace.span("factorize", n_nodes=100)
        assert a is b is trace._NULL_SPAN
        with a as s:
            s.set_attrs(anything=1)

    def test_disabled_records_no_events(self):
        with trace.span("ghost"):
            pass
        assert trace.events() == []

    def test_disabled_hot_loop_overhead_is_negligible(self):
        """200k disabled span entries must stay far under a second —
        one flag check plus a shared context manager, no allocation."""
        t0 = time.perf_counter()
        for i in range(200_000):
            with trace.span("hot", index=i):
                pass
        assert time.perf_counter() - t0 < 2.0


class TestRecording:
    def test_event_schema(self, tracing):
        with trace.span("steady", tier="krylov") as s:
            s.set_attrs(n_rhs=4)
        (event,) = trace.events()
        for key in trace.SPAN_REQUIRED_KEYS:
            assert key in event
        assert event["name"] == "steady"
        assert event["parent"] is None
        assert event["attrs"] == {"tier": "krylov", "n_rhs": 4}

    def test_nesting_assigns_parent_ids(self, tracing):
        with trace.span("outer"):
            with trace.span("middle"):
                with trace.span("inner"):
                    pass
        inner, middle, outer = trace.events()  # children exit first
        assert inner["parent"] == middle["span"]
        assert middle["parent"] == outer["span"]
        assert outer["parent"] is None
        assert len({e["span"] for e in (inner, middle, outer)}) == 3

    def test_siblings_share_parent(self, tracing):
        with trace.span("parent"):
            with trace.span("a"):
                pass
            with trace.span("b"):
                pass
        a, b, parent = trace.events()
        assert a["parent"] == b["parent"] == parent["span"]

    def test_attrs_become_jsonable(self, tracing):
        import numpy as np

        with trace.span("assemble", grid=(4, 8), n=np.int64(3)):
            pass
        (event,) = trace.events()
        assert event["attrs"] == {"grid": [4, 8], "n": 3}
        json.dumps(event)

    def test_ring_buffer_drops_oldest(self):
        trace.enable(capacity=4)
        trace.clear()
        try:
            for i in range(10):
                with trace.span("s", index=i):
                    pass
            kept = [e["attrs"]["index"] for e in trace.events()]
            assert kept == [6, 7, 8, 9]
        finally:
            trace.disable()
            trace.clear()

    def test_spans_feed_timer_histograms(self, tracing):
        from repro.telemetry import metrics

        before = metrics.timer("span.fold").stats() or {"count": 0}
        with trace.span("fold"):
            pass
        after = metrics.timer("span.fold").stats()
        assert after["count"] == before["count"] + 1


class TestTraceContext:
    def test_disabled_context_is_none(self):
        assert trace.trace_context() is None
        trace.install_trace_context(None)  # no-op
        assert not trace.enabled()

    def test_context_roundtrip(self, tracing):
        context = trace.trace_context()
        assert context["enabled"] is True
        trace.disable()
        trace.install_trace_context(context)
        assert trace.enabled()


class TestExportValidate:
    def test_roundtrip_validates(self, tracing, tmp_path):
        with trace.span("steady"):
            with trace.span(
                "factorize", kind="steady", ordering="pivoted", digest="0123abcd"
            ):
                pass
        path = trace.export_trace(tmp_path / "trace.jsonl")
        report = trace.validate_trace(path)
        assert report.ok, report.errors
        assert report.n_spans == 2
        assert report.span_totals["factorize"]["count"] == 1
        assert report.metrics is not None

    def test_export_is_overwrite_safe(self, tracing, tmp_path):
        path = tmp_path / "trace.jsonl"
        with trace.span("a"):
            pass
        trace.export_trace(path)
        trace.export_trace(path)
        assert trace.validate_trace(path).ok

    def test_validate_flags_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json_line({"kind": "span"}) + "\n")
        report = trace.validate_trace(path)
        assert any("header" in e for e in report.errors)

    def test_validate_flags_missing_keys_and_duplicates(self, tmp_path):
        header = {
            "kind": "header", "format": trace.TRACE_FORMAT,
            "version": trace.TRACE_VERSION,
        }
        span = {
            "kind": "span", "name": "x", "span": 1, "parent": None,
            "t_start": 0.0, "duration_s": 1.0, "pid": 1, "thread": 1,
        }
        bad = dict(span)
        del bad["duration_s"]
        path = tmp_path / "bad.jsonl"
        path.write_text(
            "".join(json_line(p) + "\n" for p in (header, span, span, bad))
        )
        report = trace.validate_trace(path)
        assert any("duplicate span id" in e for e in report.errors)
        assert any("missing keys" in e for e in report.errors)

    def test_validate_flags_factorize_without_digest(self, tmp_path):
        header = {
            "kind": "header", "format": trace.TRACE_FORMAT,
            "version": trace.TRACE_VERSION,
        }
        span = {
            "kind": "span", "name": "factorize", "span": 1, "parent": None,
            "t_start": 0.0, "duration_s": 1.0, "pid": 1, "thread": 1,
            "attrs": {"kind": "steady"},
        }
        unordered = dict(span, span=2, attrs={"kind": "steady", "digest": "ab12"})
        tagged = dict(
            span,
            span=3,
            attrs={"kind": "steady", "ordering": "pivoted", "digest": "ab12"},
        )
        path = tmp_path / "bad.jsonl"
        path.write_text(
            "".join(json_line(p) + "\n" for p in (header, span, unordered, tagged))
        )
        report = trace.validate_trace(path)
        assert report.errors == [
            "line 2: factorize span missing attrs ordering, digest",
            "line 3: factorize span missing attrs ordering",
        ]

    def test_validate_flags_misnested_child(self, tmp_path):
        header = {
            "kind": "header", "format": trace.TRACE_FORMAT,
            "version": trace.TRACE_VERSION,
        }
        parent = {
            "kind": "span", "name": "p", "span": 1, "parent": None,
            "t_start": 0.0, "duration_s": 1.0, "pid": 1, "thread": 1,
        }
        child = {
            "kind": "span", "name": "c", "span": 2, "parent": 1,
            "t_start": 0.5, "duration_s": 5.0, "pid": 1, "thread": 1,
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(
            "".join(json_line(p) + "\n" for p in (header, parent, child))
        )
        report = trace.validate_trace(path)
        assert any("not nested" in e for e in report.errors)

    def test_validate_tolerates_ring_evicted_parent(self, tmp_path):
        """A parent older than the buffer (lower id, absent) is fine; a
        parent that could never have been exported (>= own id) is not."""
        header = {
            "kind": "header", "format": trace.TRACE_FORMAT,
            "version": trace.TRACE_VERSION,
        }
        evicted_ok = {
            "kind": "span", "name": "c", "span": 10, "parent": 2,
            "t_start": 0.0, "duration_s": 1.0, "pid": 1, "thread": 1,
        }
        impossible = {
            "kind": "span", "name": "d", "span": 11, "parent": 99,
            "t_start": 0.0, "duration_s": 1.0, "pid": 1, "thread": 1,
        }
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "".join(json_line(p) + "\n" for p in (header, evicted_ok, impossible))
        )
        report = trace.validate_trace(path)
        assert report.errors == ["span 11: dangling parent 99"]
