"""Batch runner: parallel/serial equivalence, ordering, and seeding."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.io.sweep import config_descriptor
from repro.runner import BatchRunner
from repro.sim.cache import CharacterizationCache
from repro.sim.config import CoolingMode, PolicyKind, SimulationConfig
from repro.sweep import SweepSpec


def _configs():
    return [
        SimulationConfig(
            benchmark_name="gzip",
            policy=PolicyKind.TALB,
            cooling=CoolingMode.LIQUID_VARIABLE,
            duration=2.0,
            seed=1,
        ),
        SimulationConfig(
            benchmark_name="Web-high",
            policy=PolicyKind.LB,
            cooling=CoolingMode.AIR,
            duration=2.0,
            seed=2,
        ),
        SimulationConfig(
            benchmark_name="Database",
            policy=PolicyKind.MIGRATION,
            cooling=CoolingMode.LIQUID_MAX,
            duration=2.0,
            seed=3,
        ),
    ]


def _assert_identical(a, b):
    for name in (
        "times",
        "tmax",
        "tmax_cell",
        "core_temperatures",
        "unit_temperatures",
        "chip_power",
        "pump_power",
        "flow_setting",
        "completed_threads",
        "migrations",
    ):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    # NaN-aware comparison for the forecast series.
    assert np.array_equal(a.forecast_tmax, b.forecast_tmax, equal_nan=True)
    assert a.sojourn_sum == b.sojourn_sum
    assert a.sojourn_count == b.sojourn_count
    assert a.retrain_count == b.retrain_count


class TestParallelEquivalence:
    def test_parallel_matches_serial_bit_for_bit(self):
        configs = _configs()
        serial = list(BatchRunner(configs, cache=CharacterizationCache()).iter_runs())
        parallel = list(
            BatchRunner(configs, max_workers=2, cache=CharacterizationCache()).iter_runs()
        )
        assert len(serial) == len(parallel) == len(configs)
        for run_s, run_p in zip(serial, parallel):
            assert run_s.index == run_p.index
            assert run_s.config == run_p.config
            _assert_identical(run_s.result, run_p.result)

    def test_results_in_submission_order(self):
        configs = _configs()
        runs = list(
            BatchRunner(configs, max_workers=3, cache=CharacterizationCache()).iter_runs()
        )
        assert [run.index for run in runs] == [0, 1, 2]
        assert [run.config.benchmark_name for run in runs] == [
            "gzip",
            "Web-high",
            "Database",
        ]


class TestValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchRunner([])

    def test_tag_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchRunner(_configs()).iter_reduced(lambda *_: None, tags=[None])

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchRunner(_configs(), max_workers=0)

    def test_workers_capped_at_batch_size(self):
        runner = BatchRunner(_configs(), max_workers=64)
        assert runner.max_workers == 3


class TestReseeding:
    def test_spec_reseed_runs_are_distinct_but_reproducible(self):
        spec = SweepSpec(
            base=SimulationConfig(
                benchmark_name="Web-high",
                policy=PolicyKind.LB,
                cooling=CoolingMode.AIR,
                duration=2.0,
            ),
            points=[{}, {}],
            reseed=50,
        )
        configs = [point.config for point in spec.iter_points()]
        assert [c.seed for c in configs] == [50, 51]
        first = list(BatchRunner(configs, cache=CharacterizationCache()).iter_runs())
        again = list(BatchRunner(configs, cache=CharacterizationCache()).iter_runs())
        assert not np.array_equal(first[0].result.tmax, first[1].result.tmax)
        _assert_identical(first[0].result, again[0].result)
        _assert_identical(first[1].result, again[1].result)


class TestExport:
    def test_config_descriptor_round_trips_enums(self):
        desc = config_descriptor(_configs()[0])
        assert desc["policy"] == "TALB"
        assert desc["cooling"] == "Var"
        assert desc["label"] == "TALB (Var)"
