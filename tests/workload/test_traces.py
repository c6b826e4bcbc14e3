"""mpstat-style utilization traces and trace-driven generation."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload.benchmarks import benchmark
from repro.workload.traces import UtilizationTrace, generate_from_utilization


class TestUtilizationTrace:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            UtilizationTrace(np.array([]), n_cores=8)
        with pytest.raises(WorkloadError):
            UtilizationTrace(np.array([0.5, 1.2]), n_cores=8)
        with pytest.raises(WorkloadError):
            UtilizationTrace(np.array([0.5]), n_cores=0)

    def test_duration_and_mean(self):
        trace = UtilizationTrace(np.array([0.2, 0.4, 0.6]), n_cores=8)
        assert trace.duration == 3.0
        assert trace.mean_utilization() == pytest.approx(0.4)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("second,utilization_pct\n0,10.000\n1,55.000\n2,93.000\n")
        loaded = UtilizationTrace.from_csv(path, n_cores=8)
        assert np.allclose(loaded.utilization, [0.1, 0.55, 0.93], atol=1e-4)
        assert loaded.name == "trace"

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("second,utilization_pct\n0\n")
        with pytest.raises(WorkloadError, match="2 columns"):
            UtilizationTrace.from_csv(path, n_cores=8)

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("second,utilization_pct\n0,high\n")
        with pytest.raises(WorkloadError):
            UtilizationTrace.from_csv(path, n_cores=8)


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"second": 0, "utilization_pct": 10.0}\n'
            '{"second": 1, "utilization_pct": 55.0}\n'
            '{"second": 2, "utilization_pct": 93.0}\n'
        )
        loaded = UtilizationTrace.from_jsonl(path, n_cores=8)
        assert np.allclose(loaded.utilization, [0.1, 0.55, 0.93], atol=1e-5)
        assert loaded.name == "trace"

    def test_from_file_dispatches_on_suffix(self, tmp_path):
        path = tmp_path / "profile.jsonl"
        path.write_text(
            '{"second": 0, "utilization_pct": 25.0}\n'
            '{"second": 1, "utilization_pct": 75.0}\n'
        )
        loaded = UtilizationTrace.from_file(path, n_cores=4)
        assert np.allclose(loaded.utilization, [0.25, 0.75])

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"second": 0, "utilization_pct": 40}\n{"second": 1}\n')
        with pytest.raises(WorkloadError, match="bad.jsonl:2"):
            UtilizationTrace.from_jsonl(path, n_cores=8)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        with pytest.raises(WorkloadError, match="empty trace"):
            UtilizationTrace.from_jsonl(path, n_cores=8)


class TestGenerateFromUtilization:
    def test_follows_the_profile(self):
        spec = benchmark("Web-med")
        profile = UtilizationTrace(
            np.concatenate([np.full(30, 0.8), np.full(30, 0.1)]),
            n_cores=8,
        )
        threads = generate_from_utilization(profile, spec, seed=1)

        def offered(t0, t1):
            work = sum(t.length for t in threads.threads if t0 <= t.arrival < t1)
            return work / ((t1 - t0) * threads.n_cores)

        busy = offered(0.0, 30.0)
        quiet = offered(30.0, 60.0)
        assert busy > 4 * quiet
        assert busy == pytest.approx(0.8, rel=0.25)

    def test_deterministic(self):
        spec = benchmark("gzip")
        profile = UtilizationTrace(np.full(20, 0.3), n_cores=8)
        a = generate_from_utilization(profile, spec, seed=3)
        b = generate_from_utilization(profile, spec, seed=3)
        assert [(t.arrival, t.length) for t in a.threads] == [
            (t.arrival, t.length) for t in b.threads
        ]

    def test_zero_utilization_generates_nothing(self):
        spec = benchmark("gzip")
        profile = UtilizationTrace(np.zeros(10), n_cores=8)
        threads = generate_from_utilization(profile, spec)
        assert len(threads.threads) == 0
