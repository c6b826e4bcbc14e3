"""Metrics registry: counters, gauges, timers, snapshot/diff/merge."""

import json
import threading

import pytest

from repro.telemetry.metrics import (
    MetricsRegistry,
    TIMER_BUCKET_BOUNDS,
    series_key,
    snapshot_diff,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestSeriesKey:
    def test_no_labels_is_bare_name(self):
        assert series_key("solver.factorizations", {}) == "solver.factorizations"

    def test_labels_sorted_deterministically(self):
        a = series_key("runs", {"tier": "krylov", "mode": "block"})
        b = series_key("runs", {"mode": "block", "tier": "krylov"})
        assert a == b == "runs{mode=block,tier=krylov}"


class TestCounter:
    def test_inc_and_value(self, registry):
        c = registry.counter("runs")
        assert c.value() == 0
        c.inc()
        c.inc(5)
        assert c.value() == 6

    def test_labeled_series_are_independent(self, registry):
        c = registry.counter("runs")
        c.inc(tier="exact")
        c.inc(2, tier="krylov")
        assert c.value(tier="exact") == 1
        assert c.value(tier="krylov") == 2
        assert c.value() == 0

    def test_total_sums_all_series(self, registry):
        c = registry.counter("runs")
        c.inc(3)
        c.inc(2, tier="krylov")
        assert c.total() == 5

    def test_handles_are_cached(self, registry):
        assert registry.counter("x") is registry.counter("x")

    def test_thread_safe_increments(self, registry):
        c = registry.counter("contended")

        def worker():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 8000


class TestGauge:
    def test_last_write_wins(self, registry):
        g = registry.gauge("cache.systems")
        g.set(3)
        g.set(4)
        assert g.value() == 4.0


class TestTimer:
    def test_observe_and_stats(self, registry):
        t = registry.timer("span.step")
        t.observe(0.002)
        t.observe(0.2)
        stats = t.stats()
        assert stats["count"] == 2
        assert stats["total_s"] == pytest.approx(0.202)
        assert stats["min_s"] == pytest.approx(0.002)
        assert stats["max_s"] == pytest.approx(0.2)

    def test_buckets_are_cumulative_free_log_bins(self, registry):
        t = registry.timer("t")
        t.observe(1.0e-6)  # first bucket
        t.observe(50.0)  # <= 100 bucket
        t.observe(1000.0)  # +inf bucket
        buckets = t.stats()["buckets"]
        assert buckets[f"{TIMER_BUCKET_BOUNDS[0]:g}"] == 1
        assert buckets["100"] == 1
        assert buckets["+inf"] == 1

    def test_time_context_manager(self, registry):
        t = registry.timer("block")
        with t.time():
            pass
        assert t.stats()["count"] == 1

    def test_unobserved_series_is_none(self, registry):
        assert registry.timer("never").stats() is None


class TestSnapshot:
    def test_snapshots_of_same_state_are_byte_identical(self, registry):
        registry.counter("b").inc()
        registry.counter("a").inc(2, z="1", a="2")
        registry.gauge("g").set(1.5)
        registry.timer("t").observe(0.1)
        one = json.dumps(registry.snapshot(), sort_keys=False)
        two = json.dumps(registry.snapshot(), sort_keys=False)
        assert one == two

    def test_snapshot_is_a_copy(self, registry):
        registry.counter("a").inc()
        snap = registry.snapshot()
        snap["counters"]["a"] = 999
        assert registry.counter("a").value() == 1

    def test_keys_sorted(self, registry):
        registry.counter("z").inc()
        registry.counter("a").inc()
        assert list(registry.snapshot()["counters"]) == ["a", "z"]


class TestSnapshotDiff:
    def test_counters_subtract_and_zero_deltas_drop(self, registry):
        registry.counter("a").inc(2)
        registry.counter("b").inc(1)
        before = registry.snapshot()
        registry.counter("a").inc(3)
        diff = snapshot_diff(before, registry.snapshot())
        assert diff["counters"] == {"a": 3}

    def test_new_series_appear_whole(self, registry):
        before = registry.snapshot()
        registry.counter("fresh").inc(7)
        diff = snapshot_diff(before, registry.snapshot())
        assert diff["counters"] == {"fresh": 7}

    def test_timer_histograms_subtract(self, registry):
        registry.timer("t").observe(0.5)
        before = registry.snapshot()
        registry.timer("t").observe(0.25)
        registry.timer("t").observe(0.75)
        diff = snapshot_diff(before, registry.snapshot())
        stats = diff["timers"]["t"]
        assert stats["count"] == 2
        assert stats["total_s"] == pytest.approx(1.0)

    def test_gauges_take_after_value(self, registry):
        registry.gauge("g").set(1.0)
        before = registry.snapshot()
        registry.gauge("g").set(4.0)
        diff = snapshot_diff(before, registry.snapshot())
        assert diff["gauges"] == {"g": 4.0}


class TestMerge:
    def test_merging_diff_reproduces_activity(self, registry):
        registry.counter("c").inc(2)
        registry.timer("t").observe(0.1)
        before = registry.snapshot()
        registry.counter("c").inc(3)
        registry.timer("t").observe(0.2)
        diff = snapshot_diff(before, registry.snapshot())

        other = MetricsRegistry()
        other.counter("c").inc(10)
        other.merge(diff)
        assert other.counter("c").value() == 13
        assert other.timer("t").stats()["count"] == 1
        assert other.timer("t").stats()["total_s"] == pytest.approx(0.2)

    def test_merge_sums_are_associative_for_shards(self):
        """Per-shard deltas merged in any order give one campaign total."""
        deltas = [
            {"counters": {"solver.factorizations": 3}, "gauges": {}, "timers": {}},
            {"counters": {"solver.factorizations": 5}, "gauges": {}, "timers": {}},
        ]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for d in deltas:
            forward.merge(d)
        for d in reversed(deltas):
            backward.merge(d)
        assert (
            forward.counter("solver.factorizations").value()
            == backward.counter("solver.factorizations").value()
            == 8
        )

    def test_local_gauges_keep_their_own_reading(self, registry):
        worker = MetricsRegistry()
        for reg, value in ((registry, 1.0), (worker, 5.0)):
            reg.gauge("own", local=True).set(value, kind="a")
            reg.gauge("shared").set(value)
        registry.merge(worker.snapshot())
        assert registry.gauge("own").value(kind="a") == 1.0
        assert registry.gauge("shared").value() == 5.0

    def test_reset_zeroes_everything(self, registry):
        registry.counter("c").inc()
        registry.gauge("g").set(1)
        registry.timer("t").observe(0.1)
        registry.reset()
        snap = registry.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "timers": {}}
