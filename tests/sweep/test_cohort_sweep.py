"""Sweep execution is byte-identical to independent runs that share
nothing — aggregates, CSV, and completion JSON — for grid/zip/points
sweeps, serial or parallel, and equal to folding full results in the
parent.

``TestCohortSerialSmoke`` is the gating CI smoke (mirroring the
2-worker distributed smoke): a small policy/controller/benchmark grid
through the shared path and the fresh reference, byte-compared end to
end. Its two benchmarks differ in utilization on one system, so a
cached initial field keyed too coarsely fails it.
"""

import pytest

from repro.errors import ConfigurationError
from repro.io.sweep import save_sweep_json, sweep_row, write_sweep_csv
from repro.runner import BatchRunner
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult
from repro.sweep import SweepRunner, SweepSpec
from repro.sweep.aggregate import Aggregator, aggregate_tables, default_aggregators
from repro.sweep.runner import FoldReducer

from fresh_runs import fresh_runs


def run_both(tmp_path, spec, **kwargs):
    """Run a spec as independent serial runs (the reference) and
    through the normal path with ``kwargs``; return both output sets."""
    outputs = {}
    for mode in ("fresh", "shared"):
        json_path = tmp_path / f"{mode}.json"
        csv_path = tmp_path / f"{mode}.csv"
        if mode == "fresh":
            with fresh_runs():
                result = SweepRunner(spec, csv_path=csv_path).run()
        else:
            result = SweepRunner(spec, csv_path=csv_path, **kwargs).run()
        result.save_json(json_path)
        outputs[mode] = {
            "rows": result.rows,
            "agg_rows": [agg.rows() for agg in result.aggregators],
            "json": json_path.read_bytes(),
            "csv": csv_path.read_bytes(),
        }
    return outputs["fresh"], outputs["shared"]


def assert_outputs_identical(fresh, shared):
    assert shared["rows"] == fresh["rows"]
    assert shared["agg_rows"] == fresh["agg_rows"]
    assert shared["json"] == fresh["json"]
    assert shared["csv"] == fresh["csv"]


class TestCohortSerialSmoke:
    """The gating CI smoke: policy/controller/benchmark grid, shared
    vs fresh."""

    def test_policy_controller_grid_byte_identical(self, tmp_path):
        spec = SweepSpec(
            base=SimulationConfig(duration=0.6, nx=12, ny=12),
            grid={
                "policy": ["TALB", "RR"],
                "controller": ["lut", "stepwise"],
                "benchmark_name": ["Web-med", "gzip"],
            },
            name="cohort-smoke",
        )
        fresh, shared = run_both(tmp_path, spec)
        assert_outputs_identical(fresh, shared)


class TestCohortSweepByteIdentity:
    def test_zip_sweep(self, tmp_path):
        spec = SweepSpec(
            base=SimulationConfig(duration=0.5, nx=12, ny=12),
            zip_axes={
                "policy": ["TALB", "LB", "RR"],
                "seed": [0, 1, 2],
            },
            name="cohort-zip",
        )
        fresh, shared = run_both(tmp_path, spec)
        assert_outputs_identical(fresh, shared)

    def test_points_sweep_mixed_networks(self, tmp_path):
        """Explicit points spanning two networks plus a singleton."""
        spec = SweepSpec(
            base=SimulationConfig(duration=0.5, nx=12, ny=12),
            points=[
                {"policy": "TALB"},
                {"nx": 8, "ny": 8},
                {"policy": "RR"},
                {"nx": 8, "ny": 8, "policy": "LB"},
                {"cooling": "Air"},
            ],
            name="cohort-points",
        )
        fresh, shared = run_both(tmp_path, spec)
        assert_outputs_identical(fresh, shared)

    def test_grid_sweep_parallel_workers(self, tmp_path):
        spec = SweepSpec(
            base=SimulationConfig(duration=0.4, nx=12, ny=12),
            grid={"policy": ["TALB", "RR"], "seed": [0, 1]},
            name="cohort-par",
        )
        fresh, shared = run_both(tmp_path, spec, max_workers=2)
        assert_outputs_identical(fresh, shared)

    def test_checkpoint_resume_crosses_cohort(self, tmp_path):
        """Interrupting mid-group and resuming stays byte-identical."""
        def spec():
            return SweepSpec(
                base=SimulationConfig(duration=0.4, nx=12, ny=12),
                grid={"policy": ["TALB", "LB", "RR"]},
                name="cohort-resume",
            )

        ref_json = tmp_path / "ref.json"
        with fresh_runs():
            ref = SweepRunner(spec(), csv_path=tmp_path / "ref.csv").run()
        ref.save_json(ref_json)

        ckpt = tmp_path / "sweep.ckpt"
        SweepRunner(spec(), checkpoint=ckpt, stop_after=1).run()
        resumed = SweepRunner(
            spec(), checkpoint=ckpt, csv_path=tmp_path / "res.csv"
        ).run(resume=True)
        resumed.save_json(tmp_path / "res.json")
        assert resumed.complete and resumed.resumed == 1
        assert (tmp_path / "res.json").read_bytes() == ref_json.read_bytes()
        assert (
            (tmp_path / "res.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes()
        )


class TestPayloadTransport:
    def test_fold_reducer_matches_full_path(self, tmp_path):
        """Worker-side payload reduction produces the same bytes as
        folding full results in the parent."""
        spec = SweepSpec(
            base=SimulationConfig(duration=0.4, nx=12, ny=12),
            grid={"policy": ["TALB", "RR"], "seed": [0, 1]},
            name="transport",
        )
        points = list(spec.iter_points())
        aggregators = default_aggregators()
        rows = []
        for point, run in zip(
            points, BatchRunner([p.config for p in points]).iter_runs()
        ):
            assert isinstance(run.result, SimulationResult)
            rows.append(sweep_row(point.index, point.key, point.config, run.result))
            for agg in aggregators:
                agg.update_payload(agg.fold_payload(point.config, run.result))
        write_sweep_csv(rows, tmp_path / "full.csv")
        save_sweep_json(
            rows, aggregate_tables(aggregators), tmp_path / "full.json",
            name=spec.name, fingerprint=spec.fingerprint(),
        )

        reduced = SweepRunner(spec, csv_path=tmp_path / "red.csv").run()
        reduced.save_json(tmp_path / "red.json")
        assert (
            (tmp_path / "red.json").read_bytes()
            == (tmp_path / "full.json").read_bytes()
        )
        assert (
            (tmp_path / "red.csv").read_bytes()
            == (tmp_path / "full.csv").read_bytes()
        )

    def test_fold_reducer_pickles_without_instances(self):
        import pickle

        reducer = FoldReducer([agg.spec() for agg in default_aggregators()])
        clone = pickle.loads(pickle.dumps(reducer))
        assert clone.aggregator_specs == reducer.aggregator_specs
        assert clone._aggregators is None

    def test_unrebuildable_aggregator_fails_at_construction(self):
        """Every fold goes through the spec-rebuilt reducers, so an
        aggregator the spec factory cannot rebuild is refused before
        anything runs."""

        class Peaks(Aggregator):
            def spec(self):
                return {"kind": "scalar"}  # lies: factory builds ScalarAggregator

        class Unknown(Aggregator):
            def spec(self):
                return {"kind": "peaks"}

        spec = SweepSpec(
            base=SimulationConfig(duration=0.4, nx=12, ny=12),
            grid={"policy": ["TALB", "RR"]},
            name="custom",
        )
        with pytest.raises(ConfigurationError, match="does not rebuild"):
            SweepRunner(spec, aggregators=[Peaks()])
        with pytest.raises(ConfigurationError, match="unknown aggregator kind"):
            SweepRunner(spec, aggregators=[Unknown()])
