"""The explicit characterization cache: config keys, pickling, warm-up."""

import dataclasses
import pickle

import pytest

from repro.geometry.stack import CoolingKind
from repro.pump.laing_ddc import laing_ddc
from repro.runner import BatchRunner
from repro.sim.cache import (
    CharacterizationCache,
    clear_system_memo,
    system_for,
    system_key,
)
from repro.sim.config import CoolingMode, PolicyKind, SimulationConfig
from repro.sim.engine import Simulator
from repro.sim.system import ThermalSystem
from repro.thermal.rc_network import ThermalParams
from repro.thermal.solver import clear_neighbor_cache

from counters import Counters


def _liquid_config(**overrides):
    defaults = dict(
        benchmark_name="gzip",
        policy=PolicyKind.TALB,
        cooling=CoolingMode.LIQUID_VARIABLE,
        duration=1.0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _liquid_system():
    return ThermalSystem(2, CoolingKind.LIQUID)


class TestConfigKeys:
    def test_two_systems_of_one_config_share_one_table(self):
        cache = CharacterizationCache()
        config = _liquid_config()
        sys_a, sys_b = _liquid_system(), _liquid_system()
        table_a = cache.table(sys_a, config)
        table_b = cache.table(sys_b, config)
        assert table_a is table_b
        assert len(cache.tables) == 1

    @pytest.mark.parametrize(
        "field, value", [("target_temperature", 70.0), ("characterization_guard", 2.0)]
    )
    def test_target_and_guard_get_distinct_entries(self, field, value):
        config = _liquid_config(nx=8, ny=8)
        other = dataclasses.replace(config, **{field: value})
        assert getattr(other, field) != getattr(config, field)
        cache = CharacterizationCache()
        system = system_for(config)
        for each in (config, other):
            cache.table(system, each)
            cache.floor(system, each)
            cache.thermal_weights(system, system.start_setting, each)
        assert system_key(config) != system_key(other)
        assert len(cache.tables) == len(cache.floors) == len(cache.weight_sets) == 2
        assert cache.tables[system_key(config)] is not cache.tables[system_key(other)]

    def test_air_weights_are_keyed_by_the_config(self):
        config = SimulationConfig(
            benchmark_name="gzip", cooling=CoolingMode.AIR, duration=1.0
        )
        cache = CharacterizationCache()
        system = ThermalSystem(2, CoolingKind.AIR)
        weights = cache.thermal_weights(system, -1, config)
        (key,) = cache.weight_sets
        assert key == system_key(config) + (-1, config.talb_weight_target)
        assert weights is cache.thermal_weights(system, -1, config)


class TestSolverTierKeys:
    def test_exact_run_after_krylov_gets_a_fresh_exact_table(self):
        """Regression: the key left out the solver tier, so an exact run
        that followed a krylov run of the same config reused the
        krylov-derived table (GMRES-accurate, not bitwise exact)."""
        clear_system_memo()
        clear_neighbor_cache()
        neighbor = _liquid_config(nx=12, ny=12, solver="krylov")
        krylov = dataclasses.replace(
            neighbor, thermal_params=ThermalParams(resistance_scale=4.3)
        )
        exact = dataclasses.replace(krylov, solver="exact")
        cache = CharacterizationCache()
        try:
            # The first krylov system preconditions the second, so the
            # second's table differs from the exact one at roundoff.
            cache.table(system_for(neighbor), neighbor)
            cache.table(system_for(krylov), krylov)
            after_krylov = cache.table(system_for(exact), exact)
            fresh = CharacterizationCache().table(system_for(exact), exact)
        finally:
            clear_system_memo()
            clear_neighbor_cache()
        assert after_krylov.char.tmax.tobytes() == fresh.char.tmax.tobytes()


class TestWarmAndPickle:
    def test_warm_covers_a_variable_flow_talb_run(self):
        config = _liquid_config()
        cache = CharacterizationCache().warm([config])
        warmed = cache.stats()
        assert warmed["tables"] == 1
        assert warmed["floors"] == 1
        assert warmed["weight_sets"] == laing_ddc(3).n_settings
        # A simulation drawing from the warmed cache adds nothing new.
        Simulator(config, cache=cache).run()
        assert cache.stats() == warmed

    def test_warmed_cache_pickles(self):
        cache = CharacterizationCache().warm([_liquid_config()])
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.stats() == cache.stats()
        assert set(clone.tables) == set(cache.tables)

    def test_clear_and_len(self):
        cache = CharacterizationCache().warm([_liquid_config()])
        assert len(cache) > 0
        cache.clear()
        assert len(cache) == 0


class TestWarmResidency:
    """Warm-up leaves each exact-tier system no steady LU, and keeps
    every artifact bitwise what a cold derivation gives."""

    @pytest.mark.parametrize("cooling", [CoolingMode.LIQUID_MAX, CoolingMode.AIR])
    def test_fixed_cooling_talb_factorizes_each_lu_once(self, cooling):
        """The weights and the start setting's ``Phi`` share one steady
        LU, and the runs' initial fields need none: one steady and one
        time-step LU."""
        clear_system_memo()
        configs = [
            SimulationConfig(
                benchmark_name="Web-med", policy="TALB", cooling=cooling,
                nx=16, ny=16, duration=1.0, seed=seed,
            )
            for seed in (0, 1)
        ]
        counts = Counters()
        list(BatchRunner(configs, cache=CharacterizationCache()).iter_runs())
        assert counts.factorizations() == 2

    def test_artifacts_match_a_cold_derivation(self):
        config = _liquid_config(nx=12, ny=12)
        clear_system_memo()
        warmed = CharacterizationCache().warm([config])
        system = system_for(config)
        assert list(system._steadies) == []
        clear_system_memo()
        cold = CharacterizationCache()
        system = system_for(config)
        table = cold.table(system, config)
        ((key, warm_table),) = warmed.tables.items()
        assert warm_table.char.tmax.tobytes() == table.char.tmax.tobytes()
        assert warmed.floors[key] == cold.floor(system, config)
        for k in range(system.pump.n_settings):
            fresh = cold.thermal_weights(system, k, config).as_dict()
            assert warmed.weight_sets[key + (k, config.talb_weight_target)].as_dict() == fresh
        clear_system_memo()

    def test_pool_workers_given_a_warmed_cache_derive_nothing(self):
        """Worker metric deltas merge into this process: with the cache
        warmed here, the workers solve no ``R`` and derive no weights."""
        configs = [_liquid_config(nx=12, ny=12, seed=seed) for seed in (1, 2)]
        clear_system_memo()
        cache = CharacterizationCache().warm(configs)
        counts = Counters()
        list(BatchRunner(configs, max_workers=2, cache=cache).iter_runs())
        assert counts.delta("sim.characterize.unit_responses{kind=response}") == 0
        assert counts.delta("sim.characterize.unit_responses{kind=base}") == 0
        assert counts.delta("cache.characterization.misses{kind=weights}") == 0
        clear_system_memo()

    def test_second_warm_up_touches_no_solver(self):
        config = _liquid_config(nx=12, ny=12)
        clear_system_memo()
        cache = CharacterizationCache().warm([config])
        counts = Counters()
        cache.warm([config])
        assert counts.factorizations() == 0
        clear_system_memo()

    @pytest.mark.parametrize(
        "overrides", [dict(policy=PolicyKind.LB), dict(cooling=CoolingMode.LIQUID_MAX)]
    )
    def test_a_config_reading_less_builds_no_system(self, overrides):
        """A variable-flow TALB warm-up covers an LB run's table and a
        LIQUID_MAX run's start-setting weights, judged from the configs
        alone: even with the system evicted, nothing is rebuilt."""
        config = _liquid_config(nx=8, ny=8)
        clear_system_memo()
        cache = CharacterizationCache().warm([config])
        clear_system_memo()
        counts = Counters()
        cache.warm([dataclasses.replace(config, **overrides)])
        assert counts.delta("cache.system.misses") == 0
        assert counts.factorizations() == 0
        clear_system_memo()


class TestPreconditionerSeeding:
    """Warm-up seeds each krylov design sweep's medoid into the
    preconditioner pool: its time-step LU, and its steady ``G``'s for
    configs that solve their initial field by GMRES (no TALB weights)."""

    @staticmethod
    def _sweep(**param_axis):
        (name, values), = param_axis.items()
        return [
            SimulationConfig(
                policy="RR", cooling=CoolingMode.LIQUID_MAX, solver="krylov",
                nx=8, ny=8, duration=0.2,
                thermal_params=ThermalParams(**{name: value}),
            )
            for value in values
        ]

    def test_a_held_medoid_is_a_hit(self):
        clear_system_memo()
        clear_neighbor_cache()
        configs = self._sweep(resistance_scale=(3.5, 3.6, 3.7))
        first = Counters()
        CharacterizationCache().warm(configs)
        assert first.delta("cache.characterization.misses{kind=preconditioner}") == 2
        assert first.factorizations() == 2
        again = Counters()
        CharacterizationCache().warm(configs)
        assert again.delta("cache.characterization.hits{kind=preconditioner}") == 2
        assert again.delta("cache.characterization.misses{kind=preconditioner}") == 0
        assert again.factorizations() == 0
        clear_neighbor_cache()
        clear_system_memo()

    def test_a_lone_design_point_is_not_seeded(self):
        clear_system_memo()
        clear_neighbor_cache()
        counts = Counters()
        CharacterizationCache().warm(self._sweep(inlet_temperature=(45.0, 55.0)))
        assert counts.delta("cache.characterization.misses{kind=preconditioner}") == 0
        assert counts.delta("cache.characterization.hits{kind=preconditioner}") == 0
        assert counts.factorizations() == 0
        clear_system_memo()


class TestEngineDelegation:
    def test_module_helpers_share_the_default_cache(self):
        """Direct callers and simulators built without a cache share
        the process-wide default."""
        from repro.sim import engine

        config = _liquid_config()
        system = _liquid_system()
        table_a = engine.default_cache().table(system, config)
        table_b = engine.default_cache().table(system, config)
        assert table_a is table_b
        assert Simulator(config).cache is engine.default_cache()
