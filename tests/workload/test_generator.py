"""Synthetic workload generator vs Table II statistics."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload.benchmarks import TABLE_II, benchmark
from repro.workload.generator import WorkloadGenerator


class TestDeterminism:
    def test_same_seed_same_trace(self):
        spec = benchmark("Web-med")
        a = WorkloadGenerator(spec, seed=7).generate(10.0)
        b = WorkloadGenerator(spec, seed=7).generate(10.0)
        assert [(t.arrival, t.length) for t in a.threads] == [
            (t.arrival, t.length) for t in b.threads
        ]

    def test_different_seed_differs(self):
        spec = benchmark("Web-med")
        a = WorkloadGenerator(spec, seed=1).generate(10.0)
        b = WorkloadGenerator(spec, seed=2).generate(10.0)
        assert [(t.arrival, t.length) for t in a.threads] != [
            (t.arrival, t.length) for t in b.threads
        ]


class TestTrace:
    def test_arrivals_sorted_and_in_range(self):
        trace = WorkloadGenerator(benchmark("Web-high"), seed=0).generate(20.0)
        arrivals = [t.arrival for t in trace.threads]
        assert arrivals == sorted(arrivals)
        assert all(0.0 <= a < 20.0 for a in arrivals)

    def test_thread_ids_unique(self):
        trace = WorkloadGenerator(benchmark("Web-high"), seed=0).generate(10.0)
        ids = [t.thread_id for t in trace.threads]
        assert len(set(ids)) == len(ids)

    def test_lengths_in_paper_regime(self):
        """'a few to several hundred milliseconds'."""
        trace = WorkloadGenerator(benchmark("Web-med"), seed=0).generate(30.0)
        lengths = np.array([t.length for t in trace.threads])
        assert lengths.min() >= 0.003
        assert lengths.max() <= 0.8
        assert 0.05 < np.median(lengths) < 0.2

    def test_mean_thread_length_matches_sampled_lengths(self):
        """The analytic log-normal mean the arrival rate is set from
        agrees with the clamped lengths the generator draws."""
        generator = WorkloadGenerator(benchmark("Web-high"), seed=0)
        trace = generator.generate(60.0)
        lengths = np.array([t.length for t in trace.threads])
        assert lengths.mean() == pytest.approx(generator.mean_thread_length(), rel=0.05)

    @pytest.mark.parametrize("name", list(TABLE_II))
    def test_offered_utilization_matches_table2(self, name):
        spec = benchmark(name)
        trace = WorkloadGenerator(spec, seed=3).generate(120.0)
        assert trace.offered_utilization() == pytest.approx(
            spec.utilization, rel=0.25
        )

    def test_sixteen_core_replication(self):
        """'The workload statistics ... are replicated for the
        4-layered 16-core system': offered per-core load is preserved."""
        spec = benchmark("Web-med")
        t8 = WorkloadGenerator(spec, n_cores=8, seed=0).generate(60.0)
        t16 = WorkloadGenerator(spec, n_cores=16, seed=0).generate(60.0)
        assert t16.offered_utilization() == pytest.approx(
            t8.offered_utilization(), rel=0.2
        )
        assert len(t16.threads) > 1.5 * len(t8.threads)


class TestValidation:
    def test_rejects_bad_duration(self):
        with pytest.raises(WorkloadError):
            WorkloadGenerator(benchmark("gzip")).generate(0.0)

    def test_rejects_bad_cores(self):
        with pytest.raises(WorkloadError):
            WorkloadGenerator(benchmark("gzip"), n_cores=0)

    def test_rejects_bad_correlation(self):
        with pytest.raises(WorkloadError):
            WorkloadGenerator(benchmark("gzip"), rate_correlation=1.0)
