"""The workload-model registry: keys, byte-identity, the new models."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.registry import WorkloadContext, workload_registry
from repro.sim.cache import CharacterizationCache
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.workload import SAMPLE_TRACE_PATH, WorkloadModel
from repro.workload.benchmarks import benchmark
from repro.workload.generator import WorkloadGenerator


def ctx_for(benchmark_name="Web-med", duration=5.0, seed=0, n_cores=8):
    return WorkloadContext(
        spec=benchmark(benchmark_name),
        n_cores=n_cores,
        duration=duration,
        seed=seed,
    )


def build(key, params=None, **ctx_kwargs):
    ctx = ctx_for(**ctx_kwargs)
    model = workload_registry().create(key, params, ctx)
    assert isinstance(model, WorkloadModel)
    return model.build_trace(ctx)


class TestRegistry:
    def test_builtin_keys_registered(self):
        keys = set(workload_registry().keys())
        assert {"table2", "trace-replay", "diurnal", "flash-crowd"} <= keys

    def test_aliases_normalize(self):
        registry = workload_registry()
        assert registry.normalize("synthetic") == "table2"
        assert registry.normalize("replay") == "trace-replay"
        assert registry.normalize("TABLE2") == "table2"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="choose from"):
            workload_registry().normalize("no-such-model")

    def test_param_schema_validated(self):
        with pytest.raises(ConfigurationError, match="no parameter"):
            SimulationConfig(workload="diurnal",
                             workload_params={"burst_rate": 0.2})
        with pytest.raises(ConfigurationError):
            SimulationConfig(workload="flash-crowd",
                             workload_params={"burst_utilization": 1.5})

    def test_no_workload_isinstance_outside_workload_package(self):
        """The acceptance rule: nothing outside repro.workload may
        special-case a workload model by type or key."""
        import pathlib
        import repro

        root = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in root.rglob("*.py"):
            rel = path.relative_to(root)
            if rel.parts[0] == "workload":
                continue
            text = path.read_text()
            for marker in ("_Table2Model", "_TraceReplayModel",
                           "_DiurnalModel", "_FlashCrowdModel"):
                if marker in text:
                    offenders.append((str(rel), marker))
        assert offenders == []


class TestTable2ByteIdentity:
    def test_registry_trace_equals_direct_generator(self):
        for name in ("Web-med", "gzip", "Database"):
            direct = WorkloadGenerator(
                benchmark(name), n_cores=8, seed=3
            ).generate(5.0)
            via_registry = build(
                "table2", benchmark_name=name, duration=5.0, seed=3
            )
            assert via_registry == direct

    def test_engine_default_trace_unchanged(self):
        """A default config's simulator consumes exactly the trace the
        pre-registry engine hard-coded."""
        config = SimulationConfig(duration=2.0, seed=1)
        sim = Simulator(config, cache=CharacterizationCache())
        direct = WorkloadGenerator(
            config.spec, n_cores=config.n_cores, seed=config.seed
        ).generate(config.duration)
        assert sim.trace == direct

    def test_rate_params_change_trace(self):
        default = build("table2", duration=5.0)
        jittery = build("table2", {"rate_jitter": 0.6}, duration=5.0)
        assert default != jittery


class TestTraceReplay:
    def _write_csv(self, path, utils):
        lines = ["second,utilization_pct"]
        lines += [f"{i},{u:.1f}" for i, u in enumerate(utils)]
        path.write_text("\n".join(lines) + "\n")

    def test_bundled_sample_used_when_no_path(self):
        assert SAMPLE_TRACE_PATH.is_file()
        trace = build("trace-replay", duration=5.0)
        assert trace.duration == 5.0
        assert len(trace.threads) > 0

    def test_replays_recorded_profile(self, tmp_path):
        path = tmp_path / "t.csv"
        self._write_csv(path, [80.0] * 6)
        trace = build("trace-replay", {"path": str(path)}, duration=6.0)
        assert 0.5 < trace.offered_utilization() < 1.1

    def test_missing_file_is_a_workload_error(self):
        with pytest.raises(WorkloadError, match="does not exist"):
            build("trace-replay", {"path": "/nonexistent/trace.csv"},
                  duration=2.0)

    def test_short_trace_without_loop_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        self._write_csv(path, [50.0, 50.0])
        with pytest.raises(WorkloadError, match="loop=true"):
            build("trace-replay", {"path": str(path)}, duration=6.0)

    def test_loop_tiles_the_trace(self, tmp_path):
        path = tmp_path / "short.csv"
        self._write_csv(path, [90.0, 10.0])
        trace = build(
            "trace-replay", {"path": str(path), "loop": True}, duration=6.0
        )
        assert trace.duration == 6.0
        assert len(trace.threads) > 0

    def test_jsonl_trace_replays(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rows = [{"second": i, "utilization_pct": 60.0} for i in range(5)]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        trace = build("trace-replay", {"path": str(path)}, duration=5.0)
        assert len(trace.threads) > 0

    def test_deterministic(self, tmp_path):
        path = tmp_path / "t.csv"
        self._write_csv(path, [70.0] * 5)
        a = build("trace-replay", {"path": str(path)}, duration=5.0, seed=2)
        b = build("trace-replay", {"path": str(path)}, duration=5.0, seed=2)
        assert a == b


class TestDiurnal:
    def test_peak_regions_load_heavier_than_trough_region(self):
        # One sine cycle over 20 s starting at the peak: the outer
        # quarters ([0,5) and [15,20)) sit above mid-swing, the middle
        # half sits below it.
        trace = build(
            "diurnal",
            {"peak_utilization": 0.9, "trough_utilization": 0.05},
            duration=20.0,
        )
        peak = sum(t.length for t in trace.threads
                   if t.arrival < 5.0 or t.arrival >= 15.0)
        trough = sum(t.length for t in trace.threads
                     if 5.0 <= t.arrival < 15.0)
        assert peak > 2.0 * trough

    def test_phase_shifts_the_cycle(self):
        peak_first = build("diurnal", duration=20.0)
        trough_first = build("diurnal", {"phase": 0.5}, duration=20.0)
        def first_quarter_demand(trace):
            return sum(t.length for t in trace.threads if t.arrival < 5.0)
        assert first_quarter_demand(peak_first) > \
            2.0 * first_quarter_demand(trough_first)

    def test_square_shape_and_period(self):
        trace = build(
            "diurnal",
            {"shape": "square", "period": 10.0,
             "peak_utilization": 0.8, "trough_utilization": 0.0},
            duration=20.0,
        )
        # Two cycles: demand concentrates in [0,5) and [10,15).
        on = sum(t.length for t in trace.threads
                 if t.arrival % 10.0 < 5.0)
        off = sum(t.length for t in trace.threads
                  if t.arrival % 10.0 >= 5.0)
        assert on > 5.0 * max(off, 1.0e-9)

    def test_invalid_shape_and_inverted_band_rejected(self):
        with pytest.raises(WorkloadError, match="shape"):
            build("diurnal", {"shape": "triangle"}, duration=4.0)
        with pytest.raises(WorkloadError, match="trough"):
            build(
                "diurnal",
                {"peak_utilization": 0.2, "trough_utilization": 0.6},
                duration=4.0,
            )


class TestFlashCrowd:
    def test_bursts_raise_offered_load_above_baseline(self):
        calm = build("flash-crowd", {"burst_rate": 0.0}, duration=20.0)
        crowded = build("flash-crowd", {"burst_rate": 0.3}, duration=20.0)
        assert crowded.offered_utilization() > calm.offered_utilization()

    def test_zero_rate_matches_baseline_profile(self):
        trace = build(
            "flash-crowd",
            {"burst_rate": 0.0, "base_utilization": 0.4},
            duration=10.0,
        )
        assert abs(trace.offered_utilization() - 0.4) < 0.15

    def test_deterministic_per_seed(self):
        a = build("flash-crowd", duration=10.0, seed=5)
        b = build("flash-crowd", duration=10.0, seed=5)
        c = build("flash-crowd", duration=10.0, seed=6)
        assert a == b
        assert a != c


class TestEngineIntegration:
    def test_all_models_run_through_the_engine(self):
        for key, params in (
            ("table2", {}),
            ("trace-replay", {}),
            ("diurnal", {}),
            ("flash-crowd", {"burst_rate": 0.2}),
        ):
            config = SimulationConfig(
                duration=2.0, workload=key, workload_params=params
            )
            result = Simulator(config, cache=CharacterizationCache()).run()
            assert np.all(np.isfinite(result.tmax))

    def test_cached_trace_reruns_identically(self):
        """cache_trace models hand every run a pristine copy — a second
        simulation of the same config is bit-identical to the first."""
        cache = CharacterizationCache()
        config = SimulationConfig(duration=2.0, workload="trace-replay")
        first = Simulator(config, cache=cache).run()
        second = Simulator(config, cache=cache).run()
        assert cache.stats()["traces"] == 1
        assert np.array_equal(first.tmax, second.tmax)
        assert first.total_energy() == second.total_energy()

    def test_warm_prebuilds_cache_trace_entries(self):
        cache = CharacterizationCache()
        configs = [
            SimulationConfig(duration=2.0, workload="trace-replay"),
            SimulationConfig(duration=2.0, workload="diurnal"),
            SimulationConfig(duration=2.0),
        ]
        cache.warm(configs)
        # Only the cache_trace-trait model (trace-replay) is stored.
        assert cache.stats()["traces"] == 1

    def test_cache_clear_covers_traces(self):
        cache = CharacterizationCache()
        config = SimulationConfig(duration=2.0, workload="trace-replay")
        cache.thread_trace(config)
        assert cache.stats()["traces"] == 1
        cache.clear()
        assert len(cache) == 0

    def test_explicit_trace_argument_still_wins(self):
        config = SimulationConfig(duration=2.0)
        trace = WorkloadGenerator(
            config.spec, n_cores=config.n_cores, seed=9
        ).generate(config.duration)
        sim = Simulator(config, trace=trace, cache=CharacterizationCache())
        assert sim.trace is trace
