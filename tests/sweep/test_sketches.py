"""Histogram and quantile aggregators: rendering, exact JSON payload replay."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sweep import (
    HistogramAggregator,
    QuantileAggregator,
    aggregator_from_spec,
)
from repro.sweep.aggregate import quantile_column


class TestQuantileColumn:
    def test_names(self):
        assert quantile_column(0.5) == "p50"
        assert quantile_column(0.95) == "p95"
        assert quantile_column(0.999) == "p99.9"


def replayed(agg, payloads):
    """``agg`` restored the way a checkpoint resume does: rebuilt from
    its JSON spec, then fed the JSON-round-tripped payloads in order."""
    clone = aggregator_from_spec(json.loads(json.dumps(agg.spec())))
    for payload in json.loads(json.dumps(payloads)):
        clone.update_payload(payload)
    return clone


class TestHistogramAggregator:
    def _fold(self, agg, pairs):
        for group, value in pairs:
            agg.update_payload({"group": group, "value": value})

    def test_bins_and_edges(self):
        agg = HistogramAggregator(lo=0.0, hi=10.0, bins=5, group_by=())
        self._fold(agg, [("all", v) for v in (0.0, 1.9, 2.0, 9.99, 10.0)])
        by_bin = {row["bin"]: row for row in agg.rows()}
        assert by_bin[0]["count"] == 2   # 0.0 and 1.9
        assert by_bin[1]["count"] == 1   # 2.0
        assert by_bin[4]["count"] == 2   # 9.99 and the hi-edge value 10.0
        assert by_bin[0]["lo"] == 0.0 and by_bin[0]["hi"] == 2.0

    def test_underflow_overflow_rows(self):
        agg = HistogramAggregator(lo=0.0, hi=10.0, bins=5, group_by=())
        self._fold(agg, [("all", -1.0), ("all", 11.0), ("all", 5.0)])
        bins = [row["bin"] for row in agg.rows()]
        assert -1 in bins and 5 in bins
        total = sum(row["count"] for row in agg.rows())
        assert total == 3

    def test_nan_observations_are_counted_not_dropped(self):
        """Every folded run lands somewhere: bins, under/overflow, or
        the NaN pseudo-bin — counts always sum to the fold count."""
        agg = HistogramAggregator(lo=0.0, hi=10.0, bins=5, group_by=())
        self._fold(agg, [("all", 5.0), ("all", float("nan")), ("all", float("nan"))])
        by_bin = {row["bin"]: row for row in agg.rows()}
        assert by_bin[None]["count"] == 2
        assert sum(row["count"] for row in agg.rows()) == 3

    def test_state_round_trips_through_json(self):
        """A checkpoint holds the sketch as its spec plus journaled
        payloads; rebuilding from both restores identical rows."""
        agg = HistogramAggregator(lo=0.0, hi=10.0, bins=4, group_by=())
        payloads = [
            {"group": "all", "value": v} for v in (1.0, 3.0, 3.5, 12.0)
        ]
        for payload in payloads:
            agg.update_payload(payload)
        assert replayed(agg, payloads).rows() == agg.rows()

    def test_rejects_bad_construction(self):
        with pytest.raises(ConfigurationError, match="unknown metric"):
            HistogramAggregator(metric="nope")
        with pytest.raises(ConfigurationError, match="lo < hi"):
            HistogramAggregator(lo=5.0, hi=5.0)
        with pytest.raises(ConfigurationError, match="bin"):
            HistogramAggregator(bins=0)


class TestQuantileAggregator:
    def test_rows_report_requested_quantiles(self):
        agg = QuantileAggregator(
            metric="peak_temperature", quantiles=(0.5, 0.9), group_by=()
        )
        for value in (70.0, 80.0, 90.0):
            agg.update_payload({"group": "all", "value": value})
        (row,) = agg.rows()
        assert row["runs"] == 3
        assert row["p50"] == 80.0
        assert row["p90"] == pytest.approx(88.0)

    def test_empty_and_nan_only_groups_are_nan(self):
        agg = QuantileAggregator(group_by=())
        agg.update_payload({"group": "all", "value": float("nan")})
        (row,) = agg.rows()
        assert row["runs"] == 0
        assert np.isnan(row["p50"]) and np.isnan(row["p95"])

    def test_exact_order_statistics(self):
        """Linear interpolation at p * (n - 1) over the sorted values,
        however many there are (no streaming estimate)."""
        agg = QuantileAggregator(quantiles=(0.5, 0.9), group_by=())
        for value in [float(v) for v in range(100, 0, -1)]:
            agg.update_payload({"group": "all", "value": value})
        (row,) = agg.rows()
        assert row["runs"] == 100
        assert row["p50"] == 50.5
        assert row["p90"] == pytest.approx(90.1)

    def test_infinities_are_not_order_statistics(self):
        agg = QuantileAggregator(quantiles=(0.5,), group_by=())
        for value in (1.0, float("inf"), 3.0, float("-inf")):
            agg.update_payload({"group": "all", "value": value})
        (row,) = agg.rows()
        assert (row["runs"], row["p50"]) == (2, 2.0)

    def test_state_round_trips_through_json(self):
        agg = QuantileAggregator(group_by=())
        rng = np.random.default_rng(3)
        payloads = [
            {"group": "all", "value": float(v)} for v in rng.uniform(60, 90, size=50)
        ]
        for payload in payloads:
            agg.update_payload(payload)
        assert replayed(agg, payloads).rows() == agg.rows()

    def test_replay_merge_is_bit_identical(self):
        """Sharded payload replay in run order == one-shot folding (the
        exactness property the distributed merger relies on)."""
        rng = np.random.default_rng(5)
        payloads = [
            {"group": "g", "value": float(v)}
            for v in rng.uniform(60, 90, size=100)
        ]
        whole = QuantileAggregator(group_by=())
        sharded = QuantileAggregator(group_by=())
        for payload in payloads:
            whole.update_payload(payload)
        for shard in (payloads[:37], payloads[37:70], payloads[70:]):
            for payload in shard:
                sharded.update_payload(payload)
        assert sharded.rows() == whole.rows()

    def test_rejects_bad_construction(self):
        with pytest.raises(ConfigurationError, match="unknown metric"):
            QuantileAggregator(metric="nope")
        with pytest.raises(ConfigurationError, match="at least one"):
            QuantileAggregator(quantiles=())
        with pytest.raises(ConfigurationError, match="in \\(0, 1\\)"):
            QuantileAggregator(quantiles=(2.0,))
