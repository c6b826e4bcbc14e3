"""SweepRunner: streaming folds, checkpoint journal, bit-identical resume."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runner import BatchRunner
from repro.sim.config import SimulationConfig
from repro.sweep import HistogramAggregator, SweepRunner, SweepSpec, read_status


def recorder(executed):
    """A ``progress`` callback that records each folded run's index."""
    return lambda folded, total, point, elapsed: executed.append(point.index)


def small_spec(name="small", duration=1.0):
    """A 4-run sweep small enough for test budgets."""
    return SweepSpec(
        base=SimulationConfig(duration=duration),
        grid={"benchmark_name": ["gzip", "Web-med"], "cooling": ["Var", "Max"]},
        name=name,
    )


class TestStreamingRun:
    def test_rows_match_batch_runner(self):
        spec = small_spec()
        result = SweepRunner(spec).run()
        assert result.complete
        assert result.folded == result.n_runs == 4
        runs = list(BatchRunner([p.config for p in spec.iter_points()]).iter_runs())
        for row, run in zip(result.rows, runs):
            assert row["run"] == run.index
            assert row["peak_temperature_sensor"] == run.result.peak_temperature()
            assert row["total_energy_j"] == run.result.total_energy()

    def test_parallel_folds_equal_serial(self):
        spec = small_spec()
        serial = SweepRunner(spec).run()
        parallel = SweepRunner(spec, max_workers=2).run()
        assert parallel.rows == serial.rows
        for agg_s, agg_p in zip(serial.aggregators, parallel.aggregators):
            assert agg_p.rows() == agg_s.rows()

    def test_chunked_execution_changes_nothing(self, tmp_path):
        """chunk_size bounds memory; folds/rows/exports are invariant."""
        spec = small_spec()
        whole = SweepRunner(spec, csv_path=tmp_path / "a.csv").run()
        chunked = SweepRunner(
            spec, csv_path=tmp_path / "b.csv", chunk_size=1
        ).run()
        assert chunked.rows == whole.rows
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        for agg_a, agg_b in zip(whole.aggregators, chunked.aggregators):
            assert agg_a.rows() == agg_b.rows()

    def test_resume_with_chunking_is_bit_identical(self, tmp_path):
        spec = small_spec()
        whole = SweepRunner(spec, csv_path=tmp_path / "a.csv").run()
        ck = tmp_path / "ck.jsonl"
        SweepRunner(
            spec, checkpoint=ck, csv_path=tmp_path / "b.csv",
            stop_after=3, chunk_size=2,
        ).run()
        resumed = SweepRunner(
            spec, checkpoint=ck, csv_path=tmp_path / "b.csv", chunk_size=2
        ).run(resume=True)
        assert resumed.complete and resumed.resumed == 3
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert resumed.rows == whole.rows

    def test_progress_streams_in_index_order(self):
        spec = small_spec()
        seen = []
        SweepRunner(
            spec,
            aggregators=(),
            progress=lambda folded, total, point, elapsed: seen.append(
                (folded, total, point.index)
            ),
        ).run()
        assert seen == [(1, 4, 0), (2, 4, 1), (3, 4, 2), (4, 4, 3)]

    def test_stop_after_folds_prefix_only(self, tmp_path):
        result = SweepRunner(
            small_spec(), checkpoint=tmp_path / "ck.jsonl", stop_after=2
        ).run()
        assert not result.complete
        assert result.folded == 2
        assert [row["run"] for row in result.rows] == [0, 1]

    def test_bad_later_axis_value_fails_before_any_run(self):
        spec = SweepSpec(
            base=SimulationConfig(duration=1.0),
            grid={"benchmark_name": ["gzip"], "layers": [2, 3]},
        )
        executed = []
        with pytest.raises(ConfigurationError, match="invalid"):
            SweepRunner(
                spec, aggregators=(), progress=recorder(executed)
            ).run()
        assert executed == []  # Nothing simulated before the failure.

    def test_iter_runs_streams_serially(self):
        spec = small_spec()
        runner = BatchRunner([p.config for p in spec.iter_points()])
        iterator = runner.iter_runs()
        first = next(iterator)
        assert first.index == 0  # Available before the batch finishes.
        iterator.close()  # Early close must not raise.


class TestCheckpointResume:
    def test_interrupt_at_half_then_resume_is_bit_identical(self, tmp_path):
        """The acceptance criterion: interrupted-at-50% == uninterrupted."""
        spec = small_spec()
        fresh_dir = tmp_path / "fresh"
        part_dir = tmp_path / "part"
        fresh_dir.mkdir()
        part_dir.mkdir()

        fresh = SweepRunner(spec, csv_path=fresh_dir / "out.csv").run()
        fresh.save_json(fresh_dir / "out.json")

        ck = part_dir / "ck.jsonl"
        first = SweepRunner(
            spec, checkpoint=ck, csv_path=part_dir / "out.csv", stop_after=2
        ).run()
        assert first.folded == 2
        second = SweepRunner(
            spec, checkpoint=ck, csv_path=part_dir / "out.csv"
        ).run(resume=True)
        assert second.complete
        assert second.resumed == 2
        second.save_json(part_dir / "out.json")

        assert (part_dir / "out.csv").read_bytes() == (
            fresh_dir / "out.csv"
        ).read_bytes()
        assert (part_dir / "out.json").read_bytes() == (
            fresh_dir / "out.json"
        ).read_bytes()
        # Aggregates are bit-equal too, not merely close.
        assert [a.rows() for a in second.aggregators] == [
            a.rows() for a in fresh.aggregators
        ]

    def test_resume_skips_finished_runs(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        SweepRunner(small_spec(), checkpoint=ck, stop_after=3).run()
        executed = []
        result = SweepRunner(
            small_spec(), checkpoint=ck, progress=recorder(executed)
        ).run(resume=True)
        assert result.complete
        assert executed == [3]  # Only the unfinished tail ran.

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        SweepRunner(small_spec(), checkpoint=ck, stop_after=2).run()
        with open(ck, "a") as handle:
            handle.write('{"kind": "run", "index": 2, "key": "tr')  # torn
        status = read_status(ck)
        assert status.folded == 2
        result = SweepRunner(small_spec(), checkpoint=ck).run(resume=True)
        assert result.complete

    def test_existing_checkpoint_without_resume_is_refused(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        SweepRunner(small_spec(), checkpoint=ck, stop_after=1).run()
        with pytest.raises(ConfigurationError, match="already exists"):
            SweepRunner(small_spec(), checkpoint=ck).run()

    def test_fingerprint_mismatch_is_refused(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        SweepRunner(small_spec(), checkpoint=ck, stop_after=1).run()
        other = SweepSpec(
            base=SimulationConfig(duration=1.0),
            grid={"benchmark_name": ["Database"]},
        )
        with pytest.raises(ConfigurationError, match="different sweep"):
            SweepRunner(other, checkpoint=ck).run(resume=True)

    def test_torn_tail_of_any_prefix_resumes_only_the_rest(self, tmp_path):
        """A journal cut to header + k run lines + half a line keeps
        the k journaled runs, executes exactly runs k..n-1, and exports
        byte-identically to an uninterrupted run."""
        spec = small_spec()
        reference = SweepRunner(
            spec, checkpoint=tmp_path / "ref.jsonl", csv_path=tmp_path / "ref.csv"
        ).run()
        reference.save_json(tmp_path / "ref.json")
        lines = (tmp_path / "ref.jsonl").read_text().splitlines(keepends=True)
        for k in (0, 1, 3):
            ck = tmp_path / f"cut{k}.jsonl"
            torn = lines[1 + k]
            ck.write_text("".join(lines[: 1 + k]) + torn[: len(torn) // 2])
            executed = []
            result = SweepRunner(
                spec, checkpoint=ck, csv_path=tmp_path / f"cut{k}.csv",
                progress=recorder(executed),
            ).run(resume=True)
            result.save_json(tmp_path / f"cut{k}.json")
            assert result.resumed == k
            assert executed == list(range(k, 4))
            assert (tmp_path / f"cut{k}.csv").read_bytes() == (
                tmp_path / "ref.csv"
            ).read_bytes()
            assert (tmp_path / f"cut{k}.json").read_bytes() == (
                tmp_path / "ref.json"
            ).read_bytes()
            indices = [
                json.loads(line)["index"] for line in ck.read_text().splitlines()[1:]
            ]
            assert indices == [0, 1, 2, 3]

    def test_journal_is_header_plus_one_payload_line_per_run(self, tmp_path):
        """Run lines carry the same records a dist shard journal does:
        the export row and every aggregator's fold payload."""
        ck = tmp_path / "ck.jsonl"
        result = SweepRunner(small_spec(), checkpoint=ck).run()
        entries = [json.loads(line) for line in ck.read_text().splitlines()]
        assert [e["kind"] for e in entries] == ["header"] + ["run"] * 4
        assert entries[0]["version"] == 2
        for i, entry in enumerate(entries[1:]):
            assert list(entry) == ["kind", "index", "key", "row", "agg", "elapsed_s"]
            assert entry["index"] == i
            assert entry["row"] == result.rows[i]
            assert sorted(entry["agg"], key=int) == [
                str(j) for j in range(len(result.aggregators))
            ]

    def test_auto_range_histogram_is_exact_across_resume(self, tmp_path):
        """Interrupted after two runs, resumed: the replayed payloads
        give the campaign's exact range, as an uninterrupted sweep's."""
        def aggregators():
            return [HistogramAggregator(metric="total_energy_j", lo=None, hi=None)]

        spec = small_spec()
        whole = SweepRunner(spec, aggregators=aggregators()).run()
        ck = tmp_path / "ck.jsonl"
        SweepRunner(
            spec, aggregators=aggregators(), checkpoint=ck, stop_after=2
        ).run()
        resumed = SweepRunner(
            spec, aggregators=aggregators(), checkpoint=ck
        ).run(resume=True)
        assert resumed.aggregate_rows() == whole.aggregate_rows()
        rows = resumed.aggregate_rows()["histogram"]
        energies = [row["total_energy_j"] for row in whole.rows]
        edges = [row["lo"] for row in rows] + [row["hi"] for row in rows]
        assert min(edges) <= min(energies) and max(energies) <= max(edges)
        assert all(row["lo"] is not None and row["hi"] is not None for row in rows)

    def test_version_1_checkpoint_is_refused(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        SweepRunner(small_spec(), checkpoint=ck, stop_after=1).run()
        lines = ck.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 1
        ck.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        before = ck.read_bytes()
        with pytest.raises(
            ConfigurationError, match="unsupported checkpoint version 1"
        ):
            SweepRunner(small_spec(), checkpoint=ck).run(resume=True)
        assert ck.read_bytes() == before  # Refused, never rewritten.

    def test_gap_in_run_lines_is_refused(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        SweepRunner(small_spec(), checkpoint=ck, stop_after=3).run()
        lines = ck.read_text().splitlines()
        ck.write_text("\n".join(lines[:2] + lines[3:]) + "\n")  # Drop run 1.
        with pytest.raises(ConfigurationError, match="contiguous from 0"):
            SweepRunner(small_spec(), checkpoint=ck).run(resume=True)

    def test_status_leaves_a_torn_journal_untouched(self, tmp_path):
        """Only a resume repairs a torn tail; status is read-only."""
        ck = tmp_path / "ck.jsonl"
        SweepRunner(small_spec(), checkpoint=ck, stop_after=1).run()
        with open(ck, "a") as handle:
            handle.write('{"kind": "run", "ind')  # torn
        before = ck.read_bytes()
        assert read_status(ck).folded == 1
        assert ck.read_bytes() == before

    def test_resume_rebuilds_aggregators_from_the_header(self, tmp_path):
        """Journaled payloads replay into the reducers the journal was
        written with, whatever the resuming caller passes."""
        spec = small_spec()
        whole = SweepRunner(spec).run()
        ck = tmp_path / "ck.jsonl"
        SweepRunner(spec, checkpoint=ck, stop_after=2).run()
        resumed = SweepRunner(spec, aggregators=(), checkpoint=ck).run(resume=True)
        assert [a.spec() for a in resumed.aggregators] == [
            a.spec() for a in whole.aggregators
        ]
        assert resumed.aggregate_rows() == whole.aggregate_rows()

    def test_run_lines_are_dist_shard_run_lines(self, tmp_path):
        """A checkpoint's run lines are the records a one-shard dist
        journal holds for the same spec (wall time aside)."""
        from repro.dist import plan_campaign, read_ledger, run_worker

        def records(lines):
            runs = [json.loads(line) for line in lines]
            return [
                json.dumps({k: v for k, v in run.items() if k != "elapsed_s"})
                for run in runs
                if run["kind"] == "run"
            ]

        spec = small_spec(duration=0.5)
        ck = tmp_path / "ck.jsonl"
        SweepRunner(spec, checkpoint=ck).run()
        camp = tmp_path / "camp"
        plan_campaign(spec, camp, chunk_size=spec.run_count)
        run_worker(camp, worker_id="w1")
        ledger = read_ledger(camp)
        shard = ledger.shard_journal_path(ledger.shards[0])
        assert records(ck.read_text().splitlines()) == records(
            shard.read_text().splitlines()
        )
        assert len(records(ck.read_text().splitlines())) == 4

    def test_status_reports_progress(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        SweepRunner(small_spec(name="statussweep"), checkpoint=ck, stop_after=2).run()
        status = read_status(ck)
        assert status.name == "statussweep"
        assert (status.folded, status.n_runs, status.remaining) == (2, 4, 2)
        assert status.pct == pytest.approx(50.0)
        assert status.last_key.startswith("00001")


class TestAggregateCorrectness:
    def test_scalar_aggregates_match_direct_computation(self):
        spec = small_spec()
        result = SweepRunner(spec).run()
        runs = list(BatchRunner([p.config for p in spec.iter_points()]).iter_runs())
        scalar_rows = {
            row["label"]: row for row in result.aggregators[0].rows()
        }
        for label in ("TALB (Var)", "TALB (Max)"):
            expected = np.mean(
                [
                    run.result.peak_temperature()
                    for run in runs
                    if run.config.label() == label
                ]
            )
            assert scalar_rows[label]["peak_temperature_mean"] == pytest.approx(
                expected
            )
            assert scalar_rows[label]["runs"] == 2
