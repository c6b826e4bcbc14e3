"""Sweep tables as pure functions of the index-ordered payload list.

* Scalar, cell and moments rows are bitwise those of the streaming
  reference reducers in ``tests/naive_aggregate.py`` (NaN and
  infinities included).
* Quantiles are numpy's ``linear`` order statistics, and bitwise the
  old five-value prefix rule for groups of up to five values.
* An auto-range histogram holds every finite value, however late its
  extremes arrive.
* ``rows()`` never changes what it renders from.
* A checkpoint resume and a distributed merge cut past payload 64 (the
  old auto-range warm-up) export byte-identically to one uninterrupted
  sweep, and a journal or ledger written with the old ``warmup``
  histogram spec is refused by name.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naive_aggregate import cell_rows, moments_rows, prefix_quantile, scalar_rows
from repro.cli import main
from repro.dist import merge_campaign, plan_campaign, run_worker
from repro.errors import ConfigurationError
from repro.sim.config import SimulationConfig
from repro.sweep import (
    SweepRunner,
    SweepSpec,
    aggregator_from_spec,
    default_aggregators,
)
from repro.sweep.aggregate import (
    CellAggregator,
    HistogramAggregator,
    MomentsAggregator,
    QuantileAggregator,
    ScalarAggregator,
)

GROUPS = ("TALB (Var)", "LB (Air)", "RR (Max)")
METRIC_SETS = (
    ("peak_temperature",),
    ("chip_energy_j", "pue"),
    ("mean_tmax", "migrations", "throughput_tps"),
)

UNITS = ("core_0", "l2_1", "xbar", "core_3")
any_float = st.floats(allow_nan=True, allow_infinity=True)
# numpy's quantile overflows on spans near the float maximum, so the
# quantile oracle sees values within 1e12.
finite = st.floats(min_value=-1e12, max_value=1e12)
binnable = st.floats(min_value=-1e300, max_value=1e300)
NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def bits(rows) -> str:
    """Rows as text that tells every float apart bit for bit (repr
    round-trips; NaN and -0.0 keep their own spelling)."""
    return json.dumps(rows)


def recorded(agg):
    """What an aggregator keeps, as the payloads it was fed: the cell
    aggregator keeps each run as a name tuple and two float arrays."""
    if not isinstance(agg, CellAggregator):
        return agg._payloads
    return [
        {"units": [list(unit) for unit in zip(names, means.tolist(), peaks.tolist())]}
        for names, means, peaks in agg._payloads
    ]


def fed(agg, payloads):
    for payload in payloads:
        agg.update_payload(payload)
    return agg


@st.composite
def metrics_payloads(draw):
    metrics = draw(st.sampled_from(METRIC_SETS))
    payloads = draw(st.lists(
        st.fixed_dictionaries({
            "group": st.sampled_from(GROUPS),
            "values": st.lists(any_float, min_size=len(metrics), max_size=len(metrics)),
        }),
        max_size=40,
    ))
    return metrics, payloads


class TestBitwiseAgainstStreamingReducers:
    @given(metrics_payloads())
    def test_scalar_rows(self, drawn):
        metrics, payloads = drawn
        agg = fed(ScalarAggregator(metrics=metrics), payloads)
        assert bits(agg.rows()) == bits(scalar_rows(metrics, ("label",), payloads))

    @given(metrics_payloads())
    def test_moments_rows(self, drawn):
        metrics, payloads = drawn
        agg = fed(MomentsAggregator(metrics=metrics), payloads)
        assert bits(agg.rows()) == bits(moments_rows(metrics, ("label",), payloads))

    @given(st.lists(
        st.lists(st.tuples(st.sampled_from(UNITS), any_float, any_float), max_size=4),
        max_size=30,
    ))
    def test_cell_rows(self, runs):
        payloads = [{"units": [list(unit) for unit in units]} for units in runs]
        agg = fed(CellAggregator(), payloads)
        assert bits(agg.rows()) == bits(cell_rows(payloads))

    @given(st.lists(st.one_of(finite, st.just(float("nan"))), min_size=1, max_size=5))
    def test_groups_of_five_or_fewer_keep_the_prefix_rule(self, values):
        quantiles = (0.05, 0.25, 0.5, 0.9, 0.95)
        agg = fed(
            QuantileAggregator(quantiles=quantiles, group_by=()),
            [{"group": "all", "value": v} for v in values],
        )
        (row,) = agg.rows()
        expected = {f"p{100.0 * q:g}": prefix_quantile(values, q) for q in quantiles}
        assert bits({k: row[k] for k in expected}) == bits(expected)


class TestExactQuantiles:
    @given(
        st.lists(st.one_of(finite, st.sampled_from(NON_FINITE)), min_size=1, max_size=300),
        st.lists(st.floats(min_value=0.001, max_value=0.999), min_size=1, max_size=4),
    )
    def test_match_numpy_linear(self, values, quantiles):
        """numpy's lerp switches form at t = 0.5, so it is not bitwise;
        the bound is relative to the group's largest magnitude."""
        agg = fed(
            QuantileAggregator(quantiles=quantiles, group_by=()),
            [{"group": "all", "value": v} for v in values],
        )
        (row,) = agg.rows()
        data = np.array([v for v in values if np.isfinite(v)])
        assert row["runs"] == data.size
        for q in quantiles:
            got = row[f"p{100.0 * q:g}"]
            if not data.size:
                assert np.isnan(got)
                continue
            exact = float(np.quantile(data, q, method="linear"))
            assert abs(got - exact) <= 1e-12 * float(np.abs(data).max())


class TestAutoHistogramRange:
    @settings(max_examples=25)
    @given(st.lists(st.one_of(binnable, st.sampled_from(NON_FINITE)), min_size=200, max_size=400))
    def test_every_finite_value_is_binned(self, values):
        """Up to the documented bound; beyond it the range is clipped,
        so rendering still never raises (see the purity test)."""
        agg = fed(
            HistogramAggregator(lo=None, hi=None, group_by=()),
            [{"group": "all", "value": v} for v in values],
        )
        rows = agg.rows()
        binned = sum(r["count"] for r in rows if None not in (r["lo"], r["hi"]))
        assert binned == sum(1 for v in values if np.isfinite(v))
        assert sum(r["count"] for r in rows) == len(values)


class TestRowsArePure:
    @given(st.lists(st.tuples(st.sampled_from(GROUPS), any_float), max_size=30))
    def test_rendering_changes_nothing(self, drawn):
        payloads = {
            "scalar": [{"group": g, "values": [v] * 8} for g, v in drawn],
            "moments": [{"group": g, "values": [v] * 8} for g, v in drawn],
            "cells": [{"units": [["core_0", v, v]]} for _, v in drawn],
            "histogram": [{"group": g, "value": v} for g, v in drawn],
            "quantile": [{"group": g, "value": v} for g, v in drawn],
        }
        for agg in default_aggregators():
            before = bits(payloads[agg.kind])
            fed(agg, payloads[agg.kind])
            first = bits(agg.rows())
            assert bits(agg.rows()) == first
            assert bits(recorded(agg)) == before
            fresh = fed(aggregator_from_spec(agg.spec()), payloads[agg.kind])
            assert bits(fresh.rows()) == first


def long_spec():
    """130 tiny runs; the last 65 run three times longer, so their
    energies exceed everything among the first 64 folds."""
    return SweepSpec(
        base=SimulationConfig(duration=0.2, nx=8, ny=8),
        grid={"duration": [0.2, 0.6], "seed": list(range(65))},
        name="long",
    )


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    root = tmp_path_factory.mktemp("long")
    result = SweepRunner(long_spec(), csv_path=root / "ref.csv").run()
    result.save_json(root / "ref.json")
    energies = [row["total_energy_j"] for row in result.rows]
    assert max(energies[64:]) > 1.1 * max(energies[:64])
    return result, (root / "ref.json").read_bytes(), (root / "ref.csv").read_bytes()


class TestPastTheOldWarmup:
    def test_no_energy_overflows(self, uninterrupted):
        result, _, _ = uninterrupted
        rows = result.aggregate_rows()["histogram_5"]  # The energy histogram.
        assert all(row["lo"] is not None and row["hi"] is not None for row in rows)
        assert sum(row["count"] for row in rows) == 130

    def test_resume_cut_past_payload_64(self, tmp_path, uninterrupted):
        _, ref_json, ref_csv = uninterrupted
        ck = tmp_path / "ck.jsonl"
        first = SweepRunner(long_spec(), checkpoint=ck, stop_after=70).run()
        assert first.folded == 70
        resumed = SweepRunner(
            long_spec(), checkpoint=ck, csv_path=tmp_path / "r.csv"
        ).run(resume=True)
        assert resumed.resumed == 70
        resumed.save_json(tmp_path / "r.json")
        assert (tmp_path / "r.json").read_bytes() == ref_json
        assert (tmp_path / "r.csv").read_bytes() == ref_csv

    def test_dist_merge_across_the_old_warmup(self, tmp_path, uninterrupted):
        _, ref_json, ref_csv = uninterrupted
        camp = tmp_path / "camp"
        plan_campaign(long_spec(), camp, chunk_size=48)
        run_worker(camp, worker_id="w1")
        merged = merge_campaign(camp)
        merged.save_json(tmp_path / "d.json")
        merged.save_csv(tmp_path / "d.csv")
        assert (tmp_path / "d.json").read_bytes() == ref_json
        assert (tmp_path / "d.csv").read_bytes() == ref_csv


def tiny_spec():
    return SweepSpec(
        base=SimulationConfig(duration=0.2, nx=8, ny=8),
        grid={"seed": [0, 1]},
        name="tiny",
    )


def with_warmup(path):
    """Rewrite a journal or ledger header the way a pre-exact-range
    version wrote it: every histogram spec carries ``warmup``."""
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    for spec in header["aggregators"]:
        if spec["kind"] == "histogram":
            spec["warmup"] = 64
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")


class TestPreExactRangeSpecsAreRefused:
    def test_sweep_resume(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        SweepRunner(tiny_spec(), checkpoint=ck, stop_after=1).run()
        with_warmup(ck)
        before = ck.read_bytes()
        with pytest.raises(ConfigurationError, match="warmup"):
            SweepRunner(tiny_spec(), checkpoint=ck).run(resume=True)
        assert ck.read_bytes() == before  # Refused, never rewritten.

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec().to_dict()))
        with pytest.raises(SystemExit, match="warmup"):
            main([
                "sweep", "resume", "--spec", str(spec_path),
                "--checkpoint", str(ck), "--quiet",
            ])
        assert ck.read_bytes() == before

    def test_dist_merge(self, tmp_path):
        camp = tmp_path / "camp"
        plan_campaign(tiny_spec(), camp, chunk_size=1)
        run_worker(camp, worker_id="w1")
        with_warmup(camp / "ledger.jsonl")
        with pytest.raises(ConfigurationError, match="warmup"):
            merge_campaign(camp)
        with pytest.raises(SystemExit, match="warmup"):
            main(["dist", "merge", "--dir", str(camp)])
