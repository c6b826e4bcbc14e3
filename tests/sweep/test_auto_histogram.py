"""Data-driven (auto-range) histogram: exact range, replay, rendering."""

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.sweep.aggregate import HistogramAggregator, aggregator_from_spec


def _auto(bins=8):
    return HistogramAggregator(metric="total_energy_j", lo=None, hi=None, bins=bins)


def _feed(agg, values, group="g"):
    for value in values:
        agg.update_payload({"group": group, "value": value})


def _range(rows):
    """The rendered bin range: the outer edges of the finite bins."""
    binned = [r for r in rows if r["lo"] is not None and r["hi"] is not None]
    return min(r["lo"] for r in binned), max(r["hi"] for r in binned)


def _overflow(rows):
    return sum(r["count"] for r in rows if r["bin"] is not None and r["hi"] is None)


class TestRangeDerivation:
    def test_range_is_the_padded_min_max(self):
        agg = _auto(bins=6)
        _feed(agg, [10.0, 30.0, 20.0, 40.0])
        rows = agg.rows()
        # 5% padding each side of [10, 40]: six bins 5.5 wide from 8.5.
        assert [r["bin"] for r in rows] == [0, 2, 3, 5]
        assert rows[0]["lo"] == pytest.approx(8.5)
        assert rows[-1]["hi"] == pytest.approx(41.5)
        assert sum(r["count"] for r in rows) == 4

    def test_range_spans_every_group(self):
        agg = _auto()
        _feed(agg, [10.0, 12.0], group="a")
        _feed(agg, [30.0], group="b")
        low, high = _range(agg.rows())
        assert low == pytest.approx(9.0) and high == pytest.approx(31.0)
        assert _overflow(agg.rows()) == 0

    def test_late_outlier_widens_the_range(self):
        """No finite value ever overflows: the range is the campaign's
        exact min/max however late the extreme arrives."""
        agg = _auto()
        _feed(agg, [10.0 + 0.1 * i for i in range(100)])
        _feed(agg, [1000.0])
        rows = agg.rows()
        assert _overflow(rows) == 0
        assert _range(rows)[1] > 1000.0
        assert sum(r["count"] for r in rows) == 101

    def test_zero_span_gets_nonzero_bins(self):
        agg = _auto()
        _feed(agg, [5.0, 5.0, 5.0])
        (row,) = agg.rows()
        assert row["lo"] <= 5.0 < row["hi"] and row["count"] == 3

    def test_infinities_counted_outside_the_range(self):
        """inf must never enter the range derivation — one divergent
        energy value must not crash (or stretch) a whole campaign."""
        agg = _auto()
        _feed(agg, [10.0, float("inf"), float("-inf"), 20.0, 30.0])
        rows = agg.rows()
        assert _range(rows)[1] < float("inf")
        assert [r["count"] for r in rows if r["lo"] is None and r["bin"] == -1] == [1]
        assert _overflow(rows) == 1
        assert sum(r["count"] for r in rows) == 5

    def test_extreme_magnitudes_render_finite_edges(self):
        """Values near the float maximum clip the range instead of
        overflowing the edges or bin indices."""
        agg = _auto()
        _feed(agg, [1.7e308, -1.7e308, 5.0])
        rows = agg.rows()
        edges = [e for r in rows for e in (r["lo"], r["hi"]) if e is not None]
        assert edges and all(math.isfinite(e) for e in edges)
        assert sum(r["count"] for r in rows) == 3

    def test_nan_counted(self):
        agg = _auto()
        _feed(agg, [float("nan"), 10.0])
        nan_rows = [r for r in agg.rows() if r["bin"] is None]
        assert nan_rows and nan_rows[0]["count"] == 1
        assert sum(r["count"] for r in agg.rows()) == 2

    def test_rendering_does_not_mutate(self):
        agg = _auto()
        _feed(agg, [10.0, 30.0])
        rows = agg.rows()
        assert agg.rows() == rows
        _feed(agg, [20.0])
        fresh = _auto()
        _feed(fresh, [10.0, 30.0, 20.0])
        assert agg.rows() == fresh.rows()

    def test_empty_rows(self):
        assert _auto().rows() == []


class TestDeterminism:
    def test_replay_reproduces_rows_exactly(self):
        values = [3.0, 9.0, 4.5, 8.0, 2.5, 11.0, 7.0]
        a, b = _auto(), _auto()
        _feed(a, values)
        _feed(b, values)
        assert a.rows() == b.rows()

    def test_mid_stream_state_restore_matches_uninterrupted(self):
        """The checkpoint/resume property: a resume rebuilds the
        histogram from its JSON spec and replays the journaled payloads
        before folding on."""
        values = [3.0, 9.0, 4.5, 8.0, 2.5, 11.0, 7.0]
        full = _auto()
        _feed(full, values)
        for cut in range(len(values)):
            restored = aggregator_from_spec(json.loads(json.dumps(_auto().spec())))
            _feed(restored, json.loads(json.dumps(values[:cut])))
            _feed(restored, values[cut:])
            assert restored.rows() == full.rows(), f"cut at {cut}"

    def test_spec_round_trip(self):
        agg = _auto(bins=12)
        clone = aggregator_from_spec(json.loads(json.dumps(agg.spec())))
        assert clone.auto_range
        assert clone.bins == 12
        assert clone.metric == "total_energy_j"
        assert clone.spec() == agg.spec()


class TestValidation:
    def test_half_explicit_range_rejected(self):
        with pytest.raises(ConfigurationError, match="both"):
            HistogramAggregator(lo=None, hi=10.0)
        with pytest.raises(ConfigurationError, match="both"):
            HistogramAggregator(lo=0.0, hi=None)

    def test_pre_exact_range_spec_is_refused(self):
        """A spec carrying the retired ``warmup`` is refused by name, so
        an old journal is never silently re-binned."""
        spec = dict(_auto().spec(), warmup=64)
        with pytest.raises(ConfigurationError, match="warmup"):
            aggregator_from_spec(spec)
