"""Batch execution on one path: runs execute in a stable sort by
thermal signature, share each system's networks, LUs and memoized
steady initial field, and stay byte-identical to independent runs that
share nothing (``fresh_runs``)."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power.components import PowerModel
from repro.runner import BatchRunner, signature_groups, thermal_signature
from repro.runner.batch import balanced_slices
from repro.sim import engine
from repro.sim.cache import (
    CharacterizationCache,
    clear_system_memo,
    power_model_for,
    system_for,
)
from repro.sim.config import CoolingMode, SimulationConfig
from repro.sweep import SweepSpec
from repro.telemetry import metrics, trace
from repro.thermal.rc_network import ThermalParams

from counters import Counters
from fresh_runs import fresh_simulate

RESULT_ARRAYS = (
    "times", "tmax", "tmax_cell", "core_temperatures", "unit_temperatures",
    "chip_power", "pump_power", "flow_setting", "completed_threads",
    "forecast_tmax", "migrations",
)


def assert_results_identical(a, b):
    """Bitwise equality of two SimulationResults (NaN == NaN)."""
    for name in RESULT_ARRAYS:
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=name
        )
    assert a.unit_names == b.unit_names
    assert a.core_names == b.core_names
    assert a.retrain_count == b.retrain_count
    assert a.sojourn_sum == b.sojourn_sum
    assert a.sojourn_count == b.sojourn_count


def policy_seed_configs(n=4, duration=0.5, **overrides):
    """n same-network configs differing only in policy/seed."""
    kwargs = dict(nx=12, ny=12, duration=duration)
    kwargs.update(overrides)
    configs = [
        SimulationConfig(policy=policy, seed=seed, **kwargs)
        for seed in (0, 1)
        for policy in ("TALB", "LB", "Mig", "RR")
    ]
    return configs[:n]


# Axis values the property test draws sweep grids from — all jointly
# valid, spanning every field of the thermal signature plus fields that
# must NOT affect it (policy, seed, benchmark).
AXES = {
    "policy": ("TALB", "LB", "RR"),
    "benchmark_name": ("gzip", "Web-med"),
    "nx": (6, 8),
    "n_layers": (2, 4),
    "cooling": ("Var", "Max", "Air"),
    "sampling_interval": (0.1, 0.2),
    "seed": (0, 1),
}


@st.composite
def sweep_grids(draw):
    names = draw(
        st.lists(
            st.sampled_from(sorted(AXES)), unique=True, min_size=1, max_size=4
        )
    )
    return {
        name: draw(
            st.lists(
                st.sampled_from(AXES[name]),
                unique=True,
                min_size=1,
                max_size=len(AXES[name]),
            )
        )
        for name in names
    }


def fresh_reference(configs):
    """Each config as an independent run that shares nothing."""
    return [fresh_simulate(config) for config in configs]


def steady_solves(work) -> int:
    """Steady leakage solves ``work()`` performs (traced ``steady`` spans)."""
    trace.enable()
    before = metrics.snapshot()
    try:
        work()
        diff = metrics.snapshot_diff(before, metrics.snapshot())
    finally:
        trace.disable()
        trace.clear()
    return diff["timers"].get("span.steady", {}).get("count", 0)


class TestGroupingPartition:
    @given(grid=sweep_grids())
    @settings(max_examples=30, deadline=None)
    def test_grouping_partitions_any_expansion(self, grid):
        """Every run lands in exactly one group, groups agree on their
        thermal signature, and distinct groups differ."""
        spec = SweepSpec(
            base=SimulationConfig(duration=0.3, nx=8, ny=8),
            grid=grid,
            name="prop",
        )
        configs = [point.config for point in spec.iter_points()]
        groups = signature_groups(configs)
        flat = sorted(i for members in groups for i in members)
        assert flat == list(range(len(configs)))
        for members in groups:
            assert members == sorted(members)
            signatures = {thermal_signature(configs[i]) for i in members}
            assert len(signatures) == 1
        firsts = [thermal_signature(configs[members[0]]) for members in groups]
        assert len(set(firsts)) == len(firsts)

    def test_signature_ignores_non_thermal_fields(self):
        base = SimulationConfig(duration=0.5)
        same = SimulationConfig(
            duration=9.0, policy="RR", seed=7, benchmark_name="gzip"
        )
        assert thermal_signature(base) == thermal_signature(same)
        for override in (
            {"nx": 8}, {"ny": 8}, {"n_layers": 4},
            {"cooling": CoolingMode.AIR}, {"sampling_interval": 0.2},
        ):
            other = SimulationConfig(duration=0.5, **override)
            assert thermal_signature(base) != thermal_signature(other)

    def test_singletons_fall_back_to_serial_groups(self):
        """An all-distinct-signature batch plans one task per run."""
        configs = [
            SimulationConfig(nx=nx, ny=nx, duration=0.3) for nx in (6, 8, 10)
        ]
        batch = BatchRunner(configs, max_workers=2)
        assert batch._plan_groups() == [[0], [1], [2]]

    def test_split_cohort_is_balanced_and_ordered(self):
        members = list(range(10))
        for parts in (1, 2, 3, 4, 10, 99):
            slices = balanced_slices(members, parts)
            assert [i for part in slices for i in part] == members
            sizes = [len(part) for part in slices]
            assert max(sizes) - min(sizes) <= 1
            assert len(slices) == min(parts, len(members))

    def test_execution_order_is_a_stable_sort_by_signature(self):
        """Interleaved networks execute grouped, in first-appearance
        order; serially one run per task, in parallel balanced slices
        of each group."""
        configs = []
        for seed in (0, 1, 2):
            configs.append(SimulationConfig(seed=seed, nx=12, ny=12))
            configs.append(SimulationConfig(seed=seed, nx=8, ny=8))
        assert BatchRunner(configs)._plan_groups() == [
            [0], [2], [4], [1], [3], [5]
        ]
        assert BatchRunner(configs, max_workers=2)._plan_groups() == [
            [0, 2], [4], [1, 3], [5]
        ]


class TestInitialFieldMemo:
    def test_shared_initial_state_is_bitwise(self):
        """A run starting from the memoized field equals a run that
        solved its own."""
        config = SimulationConfig(duration=0.5, nx=12, ny=12)
        fresh = fresh_simulate(config)
        memoized = engine.simulate(config)
        assert_results_identical(fresh, memoized)

    def test_memoized_field_is_read_only(self):
        config = SimulationConfig(duration=0.5, nx=8, ny=8)
        cache = CharacterizationCache()
        sim = engine.Simulator(config, cache=cache)
        sim.step()
        system = system_for(config)
        field = cache.initial_field(system, config)
        with pytest.raises(ValueError):
            field[0] = 0.0
        assert cache.initial_field(system, config) is field
        assert cache.stats()["initial_fields"] == 1

    def test_memo_is_keyed_by_condition(self):
        """Variable and maximum flow start from the same setting and
        share a field; another utilization or air cooling gets its own."""
        cache = CharacterizationCache()
        var = SimulationConfig(duration=0.5, nx=8, ny=8)
        system = system_for(var)
        base = cache.initial_field(system, var)
        fixed = dataclasses.replace(var, cooling=CoolingMode.LIQUID_MAX)
        assert cache.initial_field(system_for(fixed), fixed) is base
        gzip = dataclasses.replace(var, benchmark_name="gzip")
        other_util = cache.initial_field(system_for(gzip), gzip)
        air = dataclasses.replace(var, cooling=CoolingMode.AIR)
        other_setting = cache.initial_field(system_for(air), air)
        assert not np.array_equal(base, other_util)
        assert not np.array_equal(base, other_setting)
        assert cache.stats()["initial_fields"] == 3
        # The target and guard shape the flow table, not the field.
        hot = dataclasses.replace(
            var, target_temperature=var.target_temperature + 5.0,
            characterization_guard=var.characterization_guard + 0.5,
        )
        assert cache.initial_field(system_for(hot), hot) is base
        model = power_model_for(var, system)
        np.testing.assert_array_equal(
            base,
            system.steady_temperatures(
                model, var.spec.utilization, setting_index=system.start_setting
            ),
        )

    def test_memo_is_keyed_by_model_value(self, monkeypatch):
        """Separately built equal models share one field; a model with
        another idle power gets its own."""
        from repro.sim import cache as cache_module

        config = SimulationConfig(duration=0.5, nx=8, ny=8)
        system = system_for(config)
        top = system.start_setting
        util = config.spec.utilization
        cache = CharacterizationCache()
        params = {}  # each call builds a new model of these parameters
        monkeypatch.setattr(
            cache_module, "power_model_for", lambda c, s: PowerModel(s.stack, **params)
        )
        base = cache.initial_field(system, config)
        assert cache.initial_field(system, config) is base
        params["idle_power"] = 1.5
        other = cache.initial_field(system, config)
        assert cache.initial_field(system, config) is other
        idle = PowerModel(system.stack, idle_power=1.5)
        assert other is not base
        assert not np.array_equal(base, other)
        np.testing.assert_array_equal(
            other, system.steady_temperatures(idle, util, setting_index=top)
        )

    def test_warm_campaign_runs_no_steady_solves(self):
        """A warm policy x facility batch reuses every initial field:
        zero steady solves after its first campaign."""
        configs = [
            SimulationConfig(
                policy=policy, facility=facility, seed=seed,
                cooling=CoolingMode.LIQUID_VARIABLE, nx=12, ny=12,
                duration=0.3,
            )
            for policy in ("TALB", "LB", "Mig", "RR")
            for facility in ("none", "closed-loop")
            for seed in (0, 1)
        ]
        cache = CharacterizationCache()
        clear_system_memo()
        cold = steady_solves(lambda: list(BatchRunner(configs, cache=cache).iter_runs()))
        assert cold > 0
        warm = steady_solves(lambda: list(BatchRunner(configs, cache=cache).iter_runs()))
        assert warm == 0

    def test_pool_workers_receive_the_warmed_fields(self):
        """The warmed cache pickles its initial fields to pool workers:
        an exact 4-inlet TALB sweep on two workers is byte-identical to
        serial, and no worker computes a field."""
        configs = [
            SimulationConfig(
                policy="TALB", cooling=CoolingMode.LIQUID_VARIABLE, nx=12, ny=12,
                duration=0.5,
                thermal_params=ThermalParams(inlet_temperature=t),
            )
            for t in (45.0, 55.0, 65.0, 75.0)
        ]
        clear_system_memo()
        serial = [
            run.result
            for run in BatchRunner(configs, cache=CharacterizationCache()).iter_runs()
        ]
        clear_system_memo()
        cache = CharacterizationCache().warm(configs)
        assert cache.stats()["initial_fields"] == len(configs)
        # Workers get the cache less its fields; each task its own.
        assert cache.without_fields().stats()["initial_fields"] == 0
        assert len(cache.fields_for(configs[:2])) == 2
        shipped = CharacterizationCache()
        shipped.keep_fields(pickle.loads(pickle.dumps(cache.fields_for(configs[:1]))))
        (field,) = shipped.initial_fields.values()
        assert not field.flags.writeable
        counts = Counters()
        pooled = [
            run.result
            for run in BatchRunner(configs, max_workers=2, cache=cache).iter_runs()
        ]
        assert counts.delta("cache.characterization.misses{kind=init}") == 0
        assert counts.delta("cache.characterization.hits{kind=init}") == len(configs)
        for a, b in zip(serial, pooled):
            assert_results_identical(a, b)
        clear_system_memo()


    def test_fields_past_the_budget_are_evicted(self, monkeypatch):
        """The cache holds initial fields up to a byte budget, least
        recently used out; a warm-up after an eviction solves the
        evicted field again instead of trusting its earlier cover."""
        from repro.sim import cache as cache_module

        configs = [
            SimulationConfig(
                policy="RR", cooling=CoolingMode.LIQUID_MAX, nx=8, ny=8, duration=0.3,
                thermal_params=ThermalParams(inlet_temperature=t),
            )
            for t in (45.0, 55.0, 65.0)
        ]
        cache = CharacterizationCache()
        first = cache.initial_field(system_for(configs[0]), configs[0])
        monkeypatch.setattr(cache_module, "_INITIAL_FIELD_BYTES", 2 * first.nbytes)
        cache.warm(configs)
        assert cache.stats()["initial_fields"] == 2
        assert all(field is not first for field in cache.initial_fields.values())
        counts = Counters()
        cache.warm(configs)
        assert counts.delta("cache.characterization.misses{kind=init}") > 0
        assert cache.stats()["initial_fields"] == 2


class TestCohortByteIdentity:
    def test_krylov_cohort_equals_fresh(self):
        """Krylov TALB fields solve on the exact LU, RR fields by GMRES:
        on one system each config reads its own, warmed or cold."""
        configs = [
            SimulationConfig(policy=policy, solver="krylov", nx=12, ny=12, duration=0.4)
            for policy in ("TALB", "RR")
        ]
        reference = fresh_reference(configs)
        runs = list(BatchRunner(configs, cache=CharacterizationCache()).iter_runs())
        for expected, run in zip(reference, runs):
            assert_results_identical(expected, run.result)

    def test_exact_cohort_equals_serial(self):
        configs = policy_seed_configs(6)
        reference = fresh_reference(configs)
        runs = list(BatchRunner(configs).iter_runs())
        assert [r.index for r in runs] == list(range(len(configs)))
        for expected, run in zip(reference, runs):
            assert_results_identical(expected, run.result)

    def test_exact_cohort_equals_serial_parallel(self):
        configs = policy_seed_configs(4, duration=0.3)
        reference = fresh_reference(configs)
        runs = list(BatchRunner(configs, max_workers=2).iter_runs())
        for expected, run in zip(reference, runs):
            assert_results_identical(expected, run.result)

    def test_mixed_networks_partition_and_match(self):
        """Two interleaved networks plus a singleton vs independent runs."""
        configs = []
        for seed in (0, 1):
            configs.append(SimulationConfig(seed=seed, nx=12, ny=12, duration=0.4))
            configs.append(SimulationConfig(seed=seed, nx=8, ny=8, duration=0.4))
        configs.append(SimulationConfig(cooling=CoolingMode.AIR, nx=8, ny=8, duration=0.4))
        assert [len(c) for c in signature_groups(configs)] == [2, 2, 1]
        reference = fresh_reference(configs)
        runs = list(BatchRunner(configs).iter_runs())
        for expected, run in zip(reference, runs):
            assert_results_identical(expected, run.result)


class TestFactorizationSharing:
    def test_warm_cohort_adds_no_factorizations(self):
        """The algorithmic perf gate: a warm campaign performs zero LU
        factorizations — every (network, dt) system is hit at most once
        per process, however many runs step through it."""
        configs = policy_seed_configs(8, duration=0.3)
        list(BatchRunner(configs).iter_runs())
        counts = Counters()
        list(BatchRunner(configs).iter_runs())
        assert counts.factorizations() == 0

    def test_cold_factorizations_independent_of_cohort_size(self):
        """<=1 factorization per network: 8 runs through one network
        factorize exactly as much as 2 runs (cooling Max pins the pump,
        so the visited settings cannot differ)."""

        def cold_count(n):
            clear_system_memo()
            configs = policy_seed_configs(n, duration=0.3, cooling=CoolingMode.LIQUID_MAX)
            counts = Counters()
            list(BatchRunner(configs, cache=CharacterizationCache()).iter_runs())
            return counts.factorizations()

        assert cold_count(8) == cold_count(2)
