"""Telemetry across the stack: shims, byte-identity, campaign rollup.

The acceptance properties of the telemetry subsystem:

* solver work counters (``solver.factorizations``,
  ``solver.krylov.*``) live in the registry, and a snapshot is a copy,
  never a live mutable view;
* tracing never changes results — sweep exports are byte-identical
  with tracing on or off, and telemetry-off shard journals carry no
  telemetry lines at all;
* a campaign worked by telemetry-enabled workers merges into one
  aggregated metrics report whose ``solver.factorizations`` matches
  the process counter's delta exactly;
* ``factorize`` spans carry a matrix digest, so duplicate LUs are
  visible from the trace alone (an inlet sweep has none);
* the ``solver.lu.resident`` gauges count the LUs this process's store
  holds, and their fill, per SuperLU ordering, whatever pool workers
  report;
* every ``gmres`` span carries its iteration count and the verified
  relative residual of its answer;
* the forecaster makes one ARMA innovations pass per observed sample
  with a fitted model (none in ``predict``), counts its refits by
  reason, and counts failed refits instead of swallowing them.
"""

import time

import pytest

from repro.dist import (
    campaign_status,
    merge_campaign,
    plan_campaign,
    read_ledger,
    run_worker,
)
from repro.io.dist import read_shard_journal, try_claim_lease
from repro.io.jsonl import read_jsonl
from repro.sim.config import SimulationConfig
from repro.sweep import SweepRunner, SweepSpec
from repro.telemetry import metrics, trace

from counters import KRYLOV_KEYS, Counters


def small_spec(name, duration=1.0):
    return SweepSpec(
        base=SimulationConfig(duration=duration),
        grid={"benchmark_name": ["gzip", "Web-med"], "cooling": ["Var", "Max"]},
        name=name,
    )


@pytest.fixture
def tracing():
    trace.enable(capacity=8192)
    trace.clear()
    yield trace
    trace.disable()
    trace.clear()


class TestLegacyShims:
    """Solver work is read from registry snapshots (the retired
    ``factorization_count()``/``krylov_stats()`` shims' contract)."""

    def test_factorization_count_is_the_registry_counter(self):
        counters = metrics.snapshot()["counters"]
        assert (
            counters.get("solver.factorizations", 0)
            == metrics.counter("solver.factorizations").value()
        )

    def test_krylov_stats_is_the_registry_counters(self):
        counters = metrics.snapshot()["counters"]
        for key in KRYLOV_KEYS:
            name = "solver.krylov." + key
            assert counters.get(name, 0) == metrics.counter(name).value()

    def test_krylov_stats_returns_snapshot_copy(self):
        """Mutating a snapshot must never leak back."""
        snapshot = metrics.snapshot()
        original = metrics.snapshot()
        snapshot["counters"]["solver.krylov.iterations"] = 1000
        snapshot["counters"]["solver.krylov.fallbacks"] = -1
        assert metrics.snapshot() == original


class TestByteIdentity:
    def test_sweep_outputs_identical_with_tracing_on(self, tmp_path):
        spec = small_spec("telemetry-identity")
        off = SweepRunner(spec, csv_path=tmp_path / "off.csv").run()
        off.save_json(tmp_path / "off.json")
        trace.enable()
        try:
            on = SweepRunner(spec, csv_path=tmp_path / "on.csv").run()
            on.save_json(tmp_path / "on.json")
        finally:
            trace.disable()
            trace.clear()
        assert (tmp_path / "on.csv").read_bytes() == (
            tmp_path / "off.csv"
        ).read_bytes()
        assert (tmp_path / "on.json").read_bytes() == (
            tmp_path / "off.json"
        ).read_bytes()

    def test_untraced_shard_journals_carry_no_telemetry_lines(self, tmp_path):
        """Tracing off (the default) leaves the journal format exactly
        as it was before telemetry existed."""
        spec = small_spec("telemetry-off-journal")
        plan_campaign(spec, tmp_path, chunk_size=2)
        assert not trace.enabled()
        run_worker(tmp_path, worker_id="w", wait=False)
        ledger = read_ledger(tmp_path)
        for shard in ledger.shards:
            entries = read_jsonl(ledger.shard_journal_path(shard)).entries
            assert all(e.get("kind") != "telemetry" for e in entries)
            journal = read_shard_journal(
                ledger.shard_journal_path(shard), shard, ledger.fingerprint
            )
            assert journal.telemetry is None
        assert merge_campaign(tmp_path).telemetry is None


class TestCampaignAggregation:
    def test_merged_factorizations_match_legacy_counter(self, tmp_path, tracing):
        """Two telemetry-enabled workers -> one campaign-wide metrics
        report whose solver.factorizations equals the process counter's
        delta over the same work, exactly."""
        from repro.sim.cache import clear_system_memo

        spec = small_spec("telemetry-campaign")
        plan_campaign(spec, tmp_path, chunk_size=2)
        # Drop memoized systems so the campaign factorizes afresh —
        # otherwise earlier tests' warm memo makes both deltas zero and
        # the equality below trivially weak.
        clear_system_memo()
        counts = Counters()
        run_worker(tmp_path, worker_id="w1", max_shards=1, wait=False)
        run_worker(tmp_path, worker_id="w2", wait=False)
        process_delta = counts.factorizations()

        merged = merge_campaign(tmp_path)
        assert merged.complete
        assert merged.telemetry is not None
        assert process_delta > 0
        assert (
            merged.telemetry["counters"]["solver.factorizations"]
            == process_delta
        )
        # The per-shard deltas carry the span-derived timers too.
        assert any(
            key.startswith("span.") for key in merged.telemetry["timers"]
        )

    def test_shard_journal_telemetry_is_per_shard_delta(self, tmp_path, tracing):
        """Each shard journals only its own activity — the deltas sum
        to the whole, with no double counting across shards."""
        spec = small_spec("telemetry-per-shard")
        plan_campaign(spec, tmp_path, chunk_size=2)
        counts = Counters()
        run_worker(tmp_path, worker_id="w", wait=False)
        total = counts.factorizations()
        ledger = read_ledger(tmp_path)
        per_shard = []
        for shard in ledger.shards:
            journal = read_shard_journal(
                ledger.shard_journal_path(shard), shard, ledger.fingerprint
            )
            per_shard.append(
                journal.telemetry["counters"].get("solver.factorizations", 0)
            )
        assert sum(per_shard) == total


class TestStatusHeartbeat:
    def test_running_shard_reports_fresh_heartbeat(self, tmp_path):
        spec = small_spec("telemetry-heartbeat")
        plan_campaign(spec, tmp_path, chunk_size=2)
        ledger = read_ledger(tmp_path)
        try_claim_lease(ledger.lease_path(ledger.shards[0]), "w1", ttl=60.0)
        state = campaign_status(tmp_path).shards[0]
        assert state.state == "running"
        assert state.worker == "w1"
        assert 0.0 <= state.heartbeat_age_s < 30.0

    def test_stale_shard_reports_heartbeat_older_than_ttl(self, tmp_path):
        spec = small_spec("telemetry-stale")
        plan_campaign(spec, tmp_path, chunk_size=2)
        ledger = read_ledger(tmp_path)
        # A lease claimed 100 s ago with a 30 s ttl: long past deadline.
        try_claim_lease(
            ledger.lease_path(ledger.shards[1]), "w2", ttl=30.0,
            now=time.time() - 100.0,
        )
        state = campaign_status(tmp_path).shards[1]
        assert state.state == "stale"
        assert state.heartbeat_age_s >= 99.0
        assert state.heartbeat_age_s > 30.0

    def test_pending_and_done_shards_have_no_heartbeat(self, tmp_path):
        spec = small_spec("telemetry-no-heartbeat")
        plan_campaign(spec, tmp_path, chunk_size=2)
        state = campaign_status(tmp_path).shards[0]
        assert state.state == "pending"
        assert state.heartbeat_age_s is None


class TestHotPathInstrumentation:
    def test_simulation_emits_expected_span_tree(self, tracing):
        from repro.sim.cache import CharacterizationCache, clear_system_memo, system_for
        from repro.sim.engine import Simulator

        # A cache holding the flow table and burst floor but no initial
        # field, whatever ran earlier in the process; LB reads no weights.
        config = SimulationConfig(duration=1.0, policy="LB")
        cache = CharacterizationCache()
        clear_system_memo()
        cache.table(system_for(config), config)
        cache.floor(system_for(config), config)
        # Assembly/factorization spans only fire on memo misses.
        clear_system_memo()
        trace.clear()
        Simulator(config, cache=cache).run()
        names = {e["name"] for e in trace.events()}
        assert {"assemble", "factorize", "steady", "step"} <= names
        # One step span per interval, in order; the fresh system's
        # steady initial field (its start setting's Phi block of one
        # column per unit and its boundary column) nests in the first.
        events = trace.events()
        by_id = {e["span"]: e for e in events}
        steps = [e for e in events if e["name"] == "step"]
        assert [e["attrs"]["index"] for e in steps] == list(range(10))
        init = [
            e for e in events
            if e["name"] == "steady" and e["parent"] in by_id
            and by_id[e["parent"]]["name"] == "step"
        ]
        assert sorted(e["attrs"]["n_rhs"] for e in init) == [1, 18]
        assert {by_id[e["parent"]]["attrs"]["index"] for e in init} == {0}

    def test_system_memo_counters_track_hits_and_misses(self):
        from repro.sim.cache import clear_system_memo, system_for

        hits = metrics.counter("cache.system.hits")
        misses = metrics.counter("cache.system.misses")
        clear_system_memo()
        config = SimulationConfig(duration=1.0)
        h0, m0 = hits.value(), misses.value()
        system_for(config)
        assert misses.value() == m0 + 1
        assert hits.value() == h0
        system_for(config)
        assert hits.value() == h0 + 1


class TestLUStoreTelemetry:
    def test_inlet_sweep_factorizes_each_matrix_once(self, tracing):
        """Inlets move only the boundary vector: a second inlet of the
        same config reuses the first one's LUs through the store, so no
        two ``factorize`` spans carry the same matrix digest."""
        from repro.sim.cache import clear_system_memo
        from repro.sim.engine import simulate
        from repro.thermal.rc_network import ThermalParams

        hits = metrics.counter("solver.lu_store.hits")
        clear_system_memo()
        counts, before_h = Counters(), hits.value(kind="steady")
        for inlet in (45.0, 55.0):
            simulate(SimulationConfig(
                duration=0.5, nx=8, ny=8,
                thermal_params=ThermalParams(inlet_temperature=inlet),
            ))
        digests = [
            e["attrs"]["digest"] for e in trace.events()
            if e["name"] == "factorize"
        ]
        assert len(digests) == counts.factorizations() > 0
        assert len(set(digests)) == len(digests)
        assert hits.value(kind="steady") > before_h


class TestLUResidency:
    @staticmethod
    def resident(ordering):
        return (
            metrics.gauge("solver.lu.resident").value(ordering=ordering),
            metrics.gauge("solver.lu.resident_nnz").value(ordering=ordering),
        )

    def test_gauges_follow_the_store(self):
        """Storing a handle adds its LU and fill; the handle's finalizer
        and clearing the store take them out again."""
        import gc

        from repro.sim.system import ThermalSystem
        from repro.thermal.solver import (
            SteadyStateSolver,
            TransientSolver,
            clear_lu_store,
        )

        clear_lu_store()
        gc.collect()
        assert self.resident("pivoted") == self.resident("symmetric") == (0, 0)
        network = ThermalSystem(nx=8, ny=8).network(0)
        steady = SteadyStateSolver(network)
        step = TransientSolver(network, 0.1)
        assert self.resident("pivoted") == (1, steady._core.lu.nnz)
        assert self.resident("symmetric") == (1, step._core.lu.nnz)
        del steady
        gc.collect()
        assert self.resident("pivoted") == (0, 0)
        clear_lu_store()
        assert self.resident("symmetric") == (0, 0)
        del step

    def test_pool_workers_leave_the_parent_readings(self):
        """The gauges read this process's own store: the metric deltas
        of a 2-worker pool, whose workers hold LUs of their own, do not
        overwrite them."""
        import gc

        from repro.runner import BatchRunner
        from repro.sim.cache import clear_system_memo
        from repro.thermal import solver

        clear_system_memo()
        gc.collect()
        configs = [SimulationConfig(nx=8, ny=8, duration=0.2, seed=s) for s in (1, 2)]
        list(BatchRunner(configs, max_workers=2).iter_runs())
        gc.collect()
        for ordering in ("pivoted", "symmetric"):
            own = [
                h.lu.nnz for h in list(solver._lu_store.values())
                if h.ordering == ordering
            ]
            assert self.resident(ordering) == (len(own), sum(own))
        assert self.resident("symmetric") == (0, 0)


class TestKrylovTelemetry:
    def test_gmres_spans_carry_iterations_and_residual(self, tracing):
        """A traced two-point krylov sweep: one ``gmres`` span per GMRES
        solve, each with its ``iterations`` and a verified ``residual``
        within ``KRYLOV_TOLERANCE``; the spans add up to the counters."""
        from repro.runner import BatchRunner
        from repro.sim.cache import CharacterizationCache, clear_system_memo
        from repro.thermal.rc_network import ThermalParams
        from repro.thermal.solver import KRYLOV_TOLERANCE, clear_neighbor_cache

        clear_system_memo()
        clear_neighbor_cache()
        counts = Counters()
        configs = [
            SimulationConfig(
                duration=0.5, nx=8, ny=8, solver="krylov",
                thermal_params=ThermalParams(resistance_scale=scale),
            )
            for scale in (4.0, 4.06)
        ]
        list(BatchRunner(configs, cache=CharacterizationCache()).iter_runs())
        clear_neighbor_cache()
        spans = [e for e in trace.events() if e["name"] == "gmres"]
        stats = counts.krylov()
        assert stats["fallbacks"] == 0
        assert len(spans) == stats["gmres_solves"] > 0
        assert sum(e["attrs"]["iterations"] for e in spans) == stats["iterations"]
        for e in spans:
            assert 0.0 <= e["attrs"]["residual"] <= KRYLOV_TOLERANCE

    def test_seeding_shows_in_the_trace_summary(self, tmp_path, capsys, tracing):
        """Warm-up's seeding of a krylov design sweep's medoid is
        characterization-cache traffic, ``kind=preconditioner``, in the
        metrics snapshot ``repro telemetry summary`` prints (the
        ``tracing`` fixture turns off the tracing ``--trace`` turns on)."""
        import json

        from repro.cli import main
        from repro.sim.cache import clear_system_memo
        from repro.thermal.solver import clear_neighbor_cache

        clear_system_memo()
        clear_neighbor_cache()
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "krylov-seed",
            "base": {"duration": 0.3, "nx": 8, "ny": 8, "solver": "krylov",
                     "policy": "TALB", "cooling": "Max"},
            "grid": {"thermal_params.resistance_scale": [3.0, 3.1, 3.2]},
        }))
        path = tmp_path / "trace.jsonl"
        assert main(["sweep", "run", "--spec", str(spec), "--quiet", "--trace", str(path)]) == 0
        clear_neighbor_cache()
        capsys.readouterr()
        assert main(["telemetry", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cache.characterization.misses{kind=preconditioner}" in out


class TestForecasterTelemetry:
    """``control.forecast.*``: one innovations pass per observed sample
    with a fitted model, refits by reason, and failed refits."""

    @staticmethod
    def counts():
        snap = metrics.snapshot()["counters"]
        return {
            key: snap.get(key, 0)
            for key in (
                "control.forecast.passes",
                "control.forecast.refits{reason=initial}",
                "control.forecast.refits{reason=sprt}",
                "control.forecast.refit_failures",
            )
        }

    def delta(self, before):
        after = self.counts()
        return {key: after[key] - before[key] for key in before}

    def test_one_pass_per_fitted_sample_and_none_in_predict(self):
        from repro.control.forecaster import TemperatureForecaster

        f = TemperatureForecaster(min_history=40)
        before = self.counts()
        for k in range(60):
            f.observe(70.0 + 0.1 * (k % 7))
        for _ in range(3):
            f.predict()
        delta = self.delta(before)
        # Samples 40..60 see a fitted model: 21 passes, none from predict.
        assert delta["control.forecast.passes"] == 21
        assert delta["control.forecast.refits{reason=initial}"] == 1

    def test_refits_labelled_by_reason(self):
        import numpy as np

        from repro.control.forecaster import TemperatureForecaster

        f = TemperatureForecaster(min_history=40, window=80)
        rng = np.random.default_rng(2)
        series = np.concatenate([
            70.0 + rng.normal(0, 0.2, 80),
            85.0 + 0.5 * np.arange(40.0) + rng.normal(0, 0.2, 40),
        ])
        before = self.counts()
        for value in series:
            f.observe(float(value))
        delta = self.delta(before)
        assert delta["control.forecast.refits{reason=initial}"] == 1
        assert delta["control.forecast.refits{reason=sprt}"] >= 1
        assert (
            delta["control.forecast.refits{reason=initial}"]
            + delta["control.forecast.refits{reason=sprt}"]
        ) == f.retrain_count
        assert delta["control.forecast.refit_failures"] == 0

    def test_failed_refit_is_counted_not_silent(self, monkeypatch):
        from repro.control.arma import ArmaModel
        from repro.control.forecaster import TemperatureForecaster
        from repro.errors import ControlError

        def degenerate(*args, **kwargs):
            raise ControlError("degenerate history")

        monkeypatch.setattr(ArmaModel, "fit", degenerate)
        f = TemperatureForecaster(min_history=40)
        before = self.counts()
        for k in range(45):
            f.observe(70.0 + 0.1 * k)
        delta = self.delta(before)
        # Samples 40..45 each attempt the initial fit and fail.
        assert delta["control.forecast.refit_failures"] == 6
        assert delta["control.forecast.refits{reason=initial}"] == 0
        assert delta["control.forecast.passes"] == 0
        assert f.model is None and f.retrain_count == 0

    def test_variable_flow_run_passes_once_per_fitted_sample(self):
        from repro.sim.config import CoolingMode
        from repro.sim.engine import simulate

        before = self.counts()
        result = simulate(SimulationConfig(
            cooling=CoolingMode.LIQUID_VARIABLE, nx=16, ny=16, duration=8.0,
        ))
        delta = self.delta(before)
        assert delta["control.forecast.refits{reason=initial}"] == 1
        # The first fit lands on the 40th sample (default min_history).
        fitted_samples = len(result.times) - 40 + 1
        assert delta["control.forecast.passes"] == fitted_samples
