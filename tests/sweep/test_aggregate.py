"""Sweep aggregators: reduction math and exact fold-payload replay."""

import gc
import json
import tracemalloc

import numpy as np
import pytest

from naive_aggregate import cell_rows
from repro.errors import ConfigurationError
from repro.sim.config import CoolingMode, PolicyKind, SimulationConfig
from repro.sim.engine import simulate
from repro.sweep import (
    CellAggregator,
    MomentsAggregator,
    ScalarAggregator,
    aggregator_from_spec,
    default_aggregators,
    group_key,
)


@pytest.fixture(scope="module")
def runs():
    """Three tiny runs spanning two policy labels."""
    configs = [
        SimulationConfig(benchmark_name="gzip", policy=PolicyKind.TALB,
                         cooling=CoolingMode.LIQUID_VARIABLE, duration=1.0, seed=1),
        SimulationConfig(benchmark_name="Web-med", policy=PolicyKind.TALB,
                         cooling=CoolingMode.LIQUID_VARIABLE, duration=1.0, seed=2),
        SimulationConfig(benchmark_name="gzip", policy=PolicyKind.LB,
                         cooling=CoolingMode.AIR, duration=1.0, seed=3),
    ]
    return [(config, simulate(config)) for config in configs]


def fold(agg, runs):
    """Fold full results live, as a sweep does."""
    for config, result in runs:
        agg.update_payload(agg.fold_payload(config, result))


def journaled(agg, runs):
    """The fold payloads of ``runs`` as a checkpoint journal holds
    them: round-tripped through JSON."""
    return [json.loads(json.dumps(agg.fold_payload(c, r))) for c, r in runs]


def replayed(agg, runs):
    """``agg`` restored the way a resume does: rebuilt from its JSON
    spec, then fed ``runs``' journaled payloads in order."""
    clone = aggregator_from_spec(json.loads(json.dumps(agg.spec())))
    for payload in journaled(agg, runs):
        clone.update_payload(payload)
    return clone


def reduced(agg, values):
    """The one-group row of ``agg`` fed one metric's ``values``."""
    for value in values:
        agg.update_payload({"group": "all", "values": [value]})
    (row,) = agg.rows()
    return row


def scalar_row(values):
    return reduced(ScalarAggregator(metrics=("migrations",), group_by=()), values)


def moments_row(values):
    return reduced(MomentsAggregator(metrics=("migrations",), group_by=()), values)


class TestScalarReduction:
    def test_count_mean_min_max(self):
        row = scalar_row((2.0, 4.0, 9.0))
        assert row["runs"] == 3
        assert row["migrations_mean"] == pytest.approx(5.0)
        assert row["migrations_min"] == 2.0
        assert row["migrations_max"] == 9.0

    def test_nan_values_are_skipped(self):
        row = scalar_row((float("nan"), 1.0))
        assert row["runs"] == 1
        assert row["migrations_mean"] == 1.0

    def test_all_nan_group_renders_nan(self):
        row = scalar_row((float("nan"),))
        assert row["runs"] == 0
        for column in ("mean", "min", "max"):
            assert np.isnan(row[f"migrations_{column}"])

    def test_json_round_trip_is_exact(self):
        """A resume replays the journaled values, which come back from
        JSON bit-exact, so the left-to-right sum is bit-equal."""
        values = (0.1, 0.2, 0.30000000000000004)
        restored = scalar_row(json.loads(json.dumps(values)))
        assert restored == scalar_row(values)  # bit-equal, not approx
        assert restored["migrations_mean"] == ((0.0 + 0.1) + 0.2 + values[2]) / 3


class TestGroupKey:
    def test_joins_descriptor_fields_in_group_by_order(self):
        config = SimulationConfig(benchmark_name="gzip", policy="TALB")
        assert group_key(config, ()) == "all"
        assert group_key(config, ("benchmark", "policy")) == "gzip|TALB"
        assert group_key(config, ("policy", "benchmark")) == "TALB|gzip"

    def test_rejects_fields_outside_the_descriptor(self):
        with pytest.raises(ConfigurationError, match="not_a_field"):
            group_key(SimulationConfig(), ("benchmark", "not_a_field"))


class TestScalarAggregator:
    def test_groups_by_label(self, runs):
        agg = ScalarAggregator(metrics=("peak_temperature", "total_energy_j"))
        fold(agg, runs)
        rows = {row["label"]: row for row in agg.rows()}
        assert set(rows) == {"TALB (Var)", "LB (Air)"}
        assert rows["TALB (Var)"]["runs"] == 2
        expected = np.mean(
            [r.peak_temperature() for c, r in runs if c.policy == "TALB"]
        )
        assert rows["TALB (Var)"]["peak_temperature_mean"] == pytest.approx(expected)

    def test_group_by_benchmark(self, runs):
        agg = ScalarAggregator(
            metrics=("chip_energy_j",), group_by=("benchmark",)
        )
        fold(agg, runs)
        rows = {row["benchmark"]: row for row in agg.rows()}
        assert rows["gzip"]["runs"] == 2
        assert rows["Web-med"]["runs"] == 1

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown metrics"):
            ScalarAggregator(metrics=("nope",))

    def test_state_round_trip_preserves_rows_exactly(self, runs):
        """A checkpoint holds the reducer as its spec plus journaled
        payloads; rebuilding from both restores bit-equal rows."""
        agg = ScalarAggregator()
        fold(agg, runs)
        assert replayed(agg, runs).rows() == agg.rows()

    def test_mid_stream_restore_matches_uninterrupted(self, runs):
        full = ScalarAggregator()
        fold(full, runs)
        restored = replayed(ScalarAggregator(), runs[:1])
        fold(restored, runs[1:])
        assert restored.rows() == full.rows()  # bit-equal sums


class TestCellAggregator:
    def test_tracks_per_unit_extremes(self, runs):
        agg = CellAggregator()
        fold(agg, runs)
        rows = {row["unit"]: row for row in agg.rows()}
        config, result = runs[0]
        name = result.unit_names[0]
        assert rows[name]["runs"] == len(runs)
        peaks = [r.unit_temperatures[:, 0].max() for _, r in runs]
        assert rows[name]["peak_temperature"] == pytest.approx(max(peaks))

    def test_state_round_trip(self, runs):
        agg = CellAggregator()
        fold(agg, runs)
        assert replayed(agg, runs).rows() == agg.rows()


    def test_runs_are_held_as_columns(self, runs):
        """10^3 JSON-parsed payloads (every unit name a fresh string,
        every value a float object) cost at least three times what the
        aggregator keeps of them: one shared name tuple per unit
        sequence and two float arrays per run."""
        agg = CellAggregator()
        config, result = runs[0]
        text = json.dumps(agg.fold_payload(config, result))

        def held(build) -> int:
            gc.collect()
            tracemalloc.start()
            try:
                kept = build()
                size = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            del kept
            return size

        def feed():
            for _ in range(1000):
                agg.update_payload(json.loads(text))
            return agg

        as_lists = held(lambda: [json.loads(text) for _ in range(1000)])
        assert 3 * held(feed) <= as_lists
        assert json.dumps(agg.rows()) == json.dumps(cell_rows([json.loads(text)] * 1000))


class TestMomentsReduction:
    def test_matches_numpy_mean_and_sample_variance(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        row = moments_row(values)
        assert row["runs"] == len(values)
        assert row["migrations_mean"] == pytest.approx(np.mean(values))
        assert row["migrations_var"] == pytest.approx(np.var(values, ddof=1))
        assert row["migrations_std"] == pytest.approx(np.std(values, ddof=1))

    def test_nan_values_are_skipped(self):
        row = moments_row((float("nan"), 3.0))
        assert row["runs"] == 1
        assert row["migrations_mean"] == 3.0

    def test_variance_undefined_below_two_observations(self):
        assert moments_row((float("nan"),))["migrations_var"] is None
        assert moments_row((1.0,))["migrations_var"] is None
        assert moments_row((1.0, 2.0))["migrations_var"] == pytest.approx(0.5)

    def test_json_round_trip_is_exact(self):
        values = (0.1, 0.2, 0.30000000000000004, 7.7)
        restored = moments_row(json.loads(json.dumps(values)))
        assert restored == moments_row(values)  # bit-equal, not approx


class TestMomentsAggregator:
    def test_groups_by_label_and_matches_numpy(self, runs):
        agg = MomentsAggregator(metrics=("peak_temperature",))
        fold(agg, runs)
        rows = {row["label"]: row for row in agg.rows()}
        assert set(rows) == {"TALB (Var)", "LB (Air)"}
        talb = [r.peak_temperature() for c, r in runs if c.policy == "TALB"]
        assert rows["TALB (Var)"]["runs"] == 2
        assert rows["TALB (Var)"]["peak_temperature_mean"] == pytest.approx(
            np.mean(talb)
        )
        assert rows["TALB (Var)"]["peak_temperature_var"] == pytest.approx(
            np.var(talb, ddof=1)
        )

    def test_single_run_groups_render_none_not_nan(self, runs):
        agg = MomentsAggregator(metrics=("chip_energy_j",))
        fold(agg, runs[2:])  # The lone LB (Air) run.
        (row,) = agg.rows()
        assert row["runs"] == 1
        assert row["chip_energy_j_var"] is None
        assert row["chip_energy_j_std"] is None

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown metrics"):
            MomentsAggregator(metrics=("nope",))

    def test_mid_stream_restore_matches_uninterrupted(self, runs):
        """The checkpoint/resume contract: replay the journaled
        payloads of a prefix, finish folding live — bit-equal rows."""
        full = MomentsAggregator()
        fold(full, runs)
        restored = replayed(MomentsAggregator(), runs[:1])
        fold(restored, runs[1:])
        assert restored.rows() == full.rows()

    def test_fold_update_split_replays_exactly(self, runs):
        """Distributed merge replays journaled fold payloads in run
        order; the result must equal direct folding bit-for-bit."""
        direct = MomentsAggregator()
        fold(direct, runs)
        assert replayed(direct, runs).rows() == direct.rows()


class TestFactory:
    def test_default_set(self):
        kinds = [agg.kind for agg in default_aggregators()]
        assert kinds == [
            "scalar", "cells", "histogram", "quantile", "moments", "histogram",
        ]
        # The second histogram is the data-driven energy sketch.
        energy = default_aggregators()[-1]
        assert energy.metric == "total_energy_j"
        assert energy.auto_range

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown aggregator"):
            aggregator_from_spec({"kind": "nope"})

    def test_unknown_spec_key_is_refused_by_name(self):
        """A spec this version cannot honour fails loudly, never folds
        differently (a pre-exact-range histogram carried ``warmup``)."""
        with pytest.raises(ConfigurationError, match="warmup"):
            aggregator_from_spec(
                {"kind": "histogram", "lo": None, "hi": None, "warmup": 64}
            )
        with pytest.raises(ConfigurationError, match="bogus"):
            aggregator_from_spec({"kind": "cells", "bogus": 1})

    def test_spec_round_trip(self):
        agg = ScalarAggregator(metrics=("migrations",), group_by=("benchmark",))
        clone = aggregator_from_spec(json.loads(json.dumps(agg.spec())))
        assert clone.metrics == ("migrations",)
        assert clone.group_by == ("benchmark",)
