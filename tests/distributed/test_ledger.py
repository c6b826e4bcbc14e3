"""Campaign planning: ledger format, shard fingerprints, idempotency."""

import json

import pytest

from repro.dist import plan_campaign, read_ledger, shard_fingerprint
from repro.dist.plan import ledger_spec, plan_shards
from repro.errors import ConfigurationError
from repro.io.dist import (
    LEASES_DIR,
    LEDGER_NAME,
    SHARDS_DIR,
    read_lease,
    reclaim_stale_lease,
    refresh_lease,
    release_lease,
    try_claim_lease,
)
from repro.sim.config import SimulationConfig
from repro.sweep import SweepSpec


def small_spec(name="dist-small", duration=1.0):
    return SweepSpec(
        base=SimulationConfig(duration=duration),
        grid={"benchmark_name": ["gzip", "Web-med"], "cooling": ["Var", "Max"]},
        name=name,
    )


class TestPlanShards:
    def test_tiles_the_run_range(self):
        shards = plan_shards("fp", 10, 4)
        assert [(s.start, s.stop) for s in shards] == [(0, 4), (4, 8), (8, 10)]
        assert [s.index for s in shards] == [0, 1, 2]

    def test_shard_ids_derive_from_spec_fingerprint(self):
        a = plan_shards("fp-a", 4, 2)
        b = plan_shards("fp-b", 4, 2)
        assert {s.shard_id for s in a}.isdisjoint({s.shard_id for s in b})
        assert a[0].shard_id == shard_fingerprint("fp-a", 0, 2)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ConfigurationError, match="chunk_size"):
            plan_shards("fp", 4, 0)


class TestPlanCampaign:
    def test_writes_ledger_and_directories(self, tmp_path):
        spec = small_spec()
        plan = plan_campaign(spec, tmp_path / "camp", chunk_size=3)
        assert plan.n_runs == 4
        assert plan.n_shards == 2
        assert (tmp_path / "camp" / LEDGER_NAME).is_file()
        assert (tmp_path / "camp" / SHARDS_DIR).is_dir()
        assert (tmp_path / "camp" / LEASES_DIR).is_dir()

    def test_ledger_embeds_spec_and_round_trips(self, tmp_path):
        spec = small_spec()
        plan_campaign(spec, tmp_path / "camp")
        ledger = read_ledger(tmp_path / "camp")
        rebuilt = ledger_spec(ledger)
        assert rebuilt.fingerprint() == spec.fingerprint()
        assert rebuilt.run_count == spec.run_count
        assert [p.key for p in rebuilt.iter_points()] == [
            p.key for p in spec.iter_points()
        ]

    def test_replan_same_campaign_is_noop(self, tmp_path):
        spec = small_spec()
        first = plan_campaign(spec, tmp_path / "camp", chunk_size=2)
        again = plan_campaign(spec, tmp_path / "camp", chunk_size=2)
        assert again.existing and not first.existing
        assert [s.shard_id for s in again.shards] == [
            s.shard_id for s in first.shards
        ]

    def test_replan_different_spec_is_refused(self, tmp_path):
        plan_campaign(small_spec(), tmp_path / "camp")
        other = SweepSpec(
            base=SimulationConfig(duration=1.0),
            grid={"benchmark_name": ["Database"]},
        )
        with pytest.raises(ConfigurationError, match="different campaign"):
            plan_campaign(other, tmp_path / "camp")

    def test_replan_different_chunking_is_refused(self, tmp_path):
        spec = small_spec()
        plan_campaign(spec, tmp_path / "camp", chunk_size=2)
        with pytest.raises(ConfigurationError, match="chunk_size"):
            plan_campaign(spec, tmp_path / "camp", chunk_size=3)

    def test_replan_different_aggregators_is_refused(self, tmp_path):
        """Workers journal fold payloads for the planned reducer set, so
        a re-plan cannot silently swap it."""
        from repro.sweep import ScalarAggregator

        spec = small_spec()
        plan_campaign(spec, tmp_path / "camp", chunk_size=2)
        with pytest.raises(ConfigurationError, match="aggregator"):
            plan_campaign(
                spec, tmp_path / "camp", chunk_size=2,
                aggregators=[ScalarAggregator(group_by=("benchmark",))],
            )

    def test_corrupt_spec_payload_is_detected(self, tmp_path):
        plan_campaign(small_spec(), tmp_path / "camp")
        path = tmp_path / "camp" / LEDGER_NAME
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["spec"]["grid"]["benchmark_name"] = ["Database"]
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ConfigurationError, match="corrupt"):
            ledger_spec(read_ledger(tmp_path / "camp"))

    def test_not_a_campaign_directory_is_clear_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="dist plan"):
            read_ledger(tmp_path)


class TestLeases:
    def test_claim_is_exclusive(self, tmp_path):
        path = tmp_path / "s.json"
        first = try_claim_lease(path, "w1", ttl=60.0, now=1000.0)
        second = try_claim_lease(path, "w2", ttl=60.0, now=1000.0)
        assert first is not None and first.worker == "w1"
        assert second is None
        assert read_lease(path).worker == "w1"

    def test_release_allows_reclaim(self, tmp_path):
        path = tmp_path / "s.json"
        try_claim_lease(path, "w1", ttl=60.0)
        release_lease(path)
        assert try_claim_lease(path, "w2", ttl=60.0) is not None

    def test_fresh_lease_is_not_reclaimable(self, tmp_path):
        path = tmp_path / "s.json"
        try_claim_lease(path, "w1", ttl=60.0, now=1000.0)
        assert not reclaim_stale_lease(path, now=1030.0)
        assert read_lease(path).worker == "w1"

    def test_expired_lease_is_reclaimable(self, tmp_path):
        path = tmp_path / "s.json"
        try_claim_lease(path, "w1", ttl=60.0, now=1000.0)
        assert reclaim_stale_lease(path, now=1061.0)
        assert read_lease(path) is None
        assert try_claim_lease(path, "w2", ttl=60.0) is not None

    def test_torn_lease_counts_as_stale(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"worker": "w1", "acqu')  # killed mid-claim
        assert reclaim_stale_lease(path, now=0.0)

    def test_refresh_extends_own_lease(self, tmp_path):
        path = tmp_path / "s.json"
        try_claim_lease(path, "w1", ttl=60.0, now=1000.0)
        assert refresh_lease(path, "w1", ttl=60.0, now=1050.0)
        assert read_lease(path).deadline == 1110.0

    def test_heartbeat_age_counts_from_the_last_refresh(self, tmp_path):
        path = tmp_path / "s.json"
        try_claim_lease(path, "w1", ttl=60.0, now=1000.0)
        assert read_lease(path).heartbeat_age(now=1020.0) == 20.0
        refresh_lease(path, "w1", ttl=60.0, now=1050.0)
        assert read_lease(path).heartbeat_age(now=1055.0) == 5.0
        assert read_lease(path).heartbeat_age(now=1040.0) == 0.0  # clock skew

    def test_torn_lease_has_no_heartbeat_age(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"worker": "w1", "acqu')
        assert read_lease(path).heartbeat_age(now=0.0) is None

    def test_refresh_fails_after_reclaim_by_other_worker(self, tmp_path):
        path = tmp_path / "s.json"
        try_claim_lease(path, "w1", ttl=60.0, now=1000.0)
        assert reclaim_stale_lease(path, now=1061.0)
        try_claim_lease(path, "w2", ttl=60.0, now=1061.0)
        assert not refresh_lease(path, "w1", ttl=60.0, now=1062.0)
        assert read_lease(path).worker == "w2"

    def test_owner_checked_release_spares_reclaimed_lease(self, tmp_path):
        """A worker whose lease expired and was reclaimed must not
        delete the new owner's lease on its way out — that would expose
        the shard to a third claimer while it is being re-executed."""
        path = tmp_path / "s.json"
        try_claim_lease(path, "w1", ttl=60.0, now=1000.0)
        assert reclaim_stale_lease(path, now=1061.0)
        try_claim_lease(path, "w2", ttl=60.0, now=1061.0)
        release_lease(path, worker="w1")  # w1's cleanup after losing it
        assert read_lease(path).worker == "w2"
        release_lease(path, worker="w2")  # the owner's release works
        assert read_lease(path) is None
