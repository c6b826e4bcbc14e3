"""Data-driven (auto-range) histogram: determinism, resume, rendering."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.sweep.aggregate import HistogramAggregator, aggregator_from_spec


def _auto(warmup=4, bins=8):
    return HistogramAggregator(
        metric="total_energy_j", lo=None, hi=None, bins=bins, warmup=warmup
    )


def _feed(agg, values, group="g"):
    for value in values:
        agg.update_payload({"group": group, "value": value})


class TestRangeDerivation:
    def test_range_freezes_after_warmup_and_covers_the_data(self):
        agg = _auto(warmup=4)
        _feed(agg, [10.0, 30.0, 20.0, 40.0])
        assert agg.frozen
        # 5% padding each side of [10, 40].
        assert agg.lo == pytest.approx(8.5)
        assert agg.hi == pytest.approx(41.5)
        assert sum(r["count"] for r in agg.rows()) == 4

    def test_not_frozen_before_warmup(self):
        agg = _auto(warmup=10)
        _feed(agg, [10.0, 30.0])
        assert not agg.frozen
        # Rows still render, with a provisional range.
        rows = agg.rows()
        assert sum(r["count"] for r in rows) == 2
        # Rendering does not mutate state.
        assert not agg.frozen
        assert agg.rows() == rows

    def test_zero_span_warmup_gets_nonzero_bins(self):
        agg = _auto(warmup=3)
        _feed(agg, [5.0, 5.0, 5.0])
        assert agg.frozen and agg.lo < 5.0 < agg.hi

    def test_post_freeze_outliers_hit_overflow(self):
        agg = _auto(warmup=2)
        _feed(agg, [10.0, 20.0])
        _feed(agg, [1000.0])
        overflow = [r for r in agg.rows() if r["hi"] is None and r["bin"] is not None]
        assert overflow and overflow[0]["count"] == 1

    def test_infinities_counted_not_buffered(self):
        """inf must never enter the range derivation — one divergent
        energy value must not crash (or stretch) a whole campaign."""
        agg = _auto(warmup=3)
        _feed(agg, [10.0, float("inf"), float("-inf"), 20.0, 30.0])
        assert agg.frozen
        assert agg.hi < float("inf")
        rows = agg.rows()
        assert [r["count"] for r in rows if r["lo"] is None and r["bin"] == -1] == [1]
        assert [r["count"] for r in rows if r["hi"] is None and r["bin"] is not None] == [1]
        assert sum(r["count"] for r in rows) == 5

    def test_nan_counted_not_buffered(self):
        agg = _auto(warmup=2)
        _feed(agg, [float("nan"), 10.0])
        assert not agg.frozen  # Only one finite value so far.
        nan_rows = [r for r in agg.rows() if r["bin"] is None]
        assert nan_rows and nan_rows[0]["count"] == 1

    def test_empty_rows(self):
        assert _auto().rows() == []


class TestDeterminism:
    def test_replay_reproduces_rows_exactly(self):
        values = [3.0, 9.0, 4.5, 8.0, 2.5, 11.0, 7.0]
        a, b = _auto(warmup=4), _auto(warmup=4)
        _feed(a, values)
        _feed(b, values)
        assert a.rows() == b.rows()
        assert (a.lo, a.hi) == (b.lo, b.hi)

    def test_mid_stream_state_restore_matches_uninterrupted(self):
        """The checkpoint/resume property, through the warm-up boundary:
        a resume rebuilds the sketch from its JSON spec and replays the
        journaled payloads before folding on."""
        values = [3.0, 9.0, 4.5, 8.0, 2.5, 11.0, 7.0]
        full = _auto(warmup=4)
        _feed(full, values)
        for cut in range(len(values)):
            restored = aggregator_from_spec(
                json.loads(json.dumps(_auto(warmup=4).spec()))
            )
            _feed(restored, json.loads(json.dumps(values[:cut])))
            _feed(restored, values[cut:])
            assert restored.rows() == full.rows(), f"cut at {cut}"

    def test_spec_round_trip(self):
        agg = _auto(warmup=7, bins=12)
        clone = aggregator_from_spec(json.loads(json.dumps(agg.spec())))
        assert clone.auto_range
        assert clone.warmup == 7
        assert clone.bins == 12
        assert clone.metric == "total_energy_j"


class TestValidation:
    def test_half_explicit_range_rejected(self):
        with pytest.raises(ConfigurationError, match="both"):
            HistogramAggregator(lo=None, hi=10.0)
        with pytest.raises(ConfigurationError, match="both"):
            HistogramAggregator(lo=0.0, hi=None)

    def test_bad_warmup_rejected(self):
        with pytest.raises(ConfigurationError, match="warmup"):
            _auto(warmup=0)
