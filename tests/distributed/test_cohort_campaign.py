"""Shared execution inside distributed campaigns: a shard whose runs
share one thermal network executes them back to back on one system,
and a worker killed mid-shard is reclaimed with a byte-identical merge
— sharing is invisible in the journals and in the merged outputs,
which equal independent runs that share nothing."""

import pytest

from repro.dist import (
    campaign_status,
    merge_campaign,
    plan_campaign,
    read_ledger,
    run_worker,
)
from repro.dist.plan import ledger_spec
from repro.dist.worker import _execute_shard
from repro.errors import ConfigurationError
from repro.io.dist import try_claim_lease
from repro.runner import signature_groups
from repro.sim.cache import CharacterizationCache
from repro.sim.config import SimulationConfig
from repro.sweep import SweepRunner, SweepSpec, aggregator_from_spec

from fresh_runs import fresh_runs


def cohort_spec(name="dist-cohort"):
    """Four runs over one thermal network — a single signature group."""
    return SweepSpec(
        base=SimulationConfig(duration=0.5, nx=12, ny=12),
        grid={"policy": ["TALB", "RR"], "seed": [0, 1]},
        name=name,
    )


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Independent single-host runs every campaign must reproduce."""
    root = tmp_path_factory.mktemp("cohort-reference")
    with fresh_runs():
        result = SweepRunner(cohort_spec(), csv_path=root / "ref.csv").run()
    result.save_json(root / "ref.json")
    return {
        "rows": result.rows,
        "agg_rows": [a.rows() for a in result.aggregators],
        "json": (root / "ref.json").read_bytes(),
        "csv": (root / "ref.csv").read_bytes(),
    }


def _assert_matches_reference(tmp_path, campaign_dir, reference):
    merged = merge_campaign(campaign_dir)
    assert merged.complete
    assert merged.rows == reference["rows"]
    assert [a.rows() for a in merged.aggregators] == reference["agg_rows"]
    merged.save_json(tmp_path / "dist.json")
    merged.save_csv(tmp_path / "dist.csv")
    assert (tmp_path / "dist.json").read_bytes() == reference["json"]
    assert (tmp_path / "dist.csv").read_bytes() == reference["csv"]


class TestCohortingShard:
    def test_shard_forms_one_cohort(self):
        spec = cohort_spec()
        configs = [point.config for point in spec.iter_points()]
        assert [len(c) for c in signature_groups(configs)] == [4]

    def test_whole_campaign_cohort_merges_byte_identical(
        self, tmp_path, reference
    ):
        """One shard = one 4-run group, merged vs independent runs."""
        camp = tmp_path / "camp"
        plan_campaign(cohort_spec(), camp, chunk_size=4)
        run_worker(camp, worker_id="w1")
        _assert_matches_reference(tmp_path, camp, reference)

    def test_chunking_splits_cohorts_byte_identical(
        self, tmp_path, reference
    ):
        """chunk_size=3 slices the group across shard boundaries —
        a 3-run group plus a singleton — and the merge still matches."""
        camp = tmp_path / "camp"
        plan_campaign(cohort_spec(), camp, chunk_size=3)
        run_worker(camp, worker_id="w1")
        _assert_matches_reference(tmp_path, camp, reference)

    def test_cohort_off_worker_matches_too(self, tmp_path, reference):
        """A worker fanning its shard over a 2-process pool merges to
        the same bytes."""
        camp = tmp_path / "camp"
        plan_campaign(cohort_spec(), camp, chunk_size=4)
        run_worker(camp, worker_id="w1", max_workers=2)
        _assert_matches_reference(tmp_path, camp, reference)


class TestKillMidCohort:
    def test_worker_killed_mid_cohort_is_reclaimed(self, tmp_path, reference):
        """The dead worker journaled part of a shard's runs (plus a
        torn trailing line) before dying; the rescuer reclaims the
        stale lease, re-executes the whole shard from scratch, and the
        merge is byte-identical."""
        camp = tmp_path / "camp"
        plan_campaign(cohort_spec(), camp, chunk_size=4)
        ledger = read_ledger(camp)
        victim = ledger.shards[0]
        try_claim_lease(
            ledger.lease_path(victim), "dead-worker", ttl=60.0, now=0.0
        )
        spec = ledger_spec(ledger)
        aggregators = [
            aggregator_from_spec(s) for s in ledger.aggregator_specs
        ]
        _execute_shard(
            ledger, spec, aggregators, victim, CharacterizationCache(),
            "dead-worker", 60.0, None, None,
        )
        # Truncate the journal to header + two of the shard's four
        # runs, ending mid-append: the kill landed inside the group.
        journal_path = ledger.shard_journal_path(victim)
        lines = journal_path.read_text().splitlines()
        journal_path.write_text(
            "\n".join(lines[:3]) + "\n" + '{"kind": "run", "index": 2, "ro'
        )
        ledger.lease_path(victim).unlink()
        try_claim_lease(
            ledger.lease_path(victim), "dead-worker", ttl=1e-9, now=0.0
        )

        status = campaign_status(camp)
        assert status.count("stale") == 1
        with pytest.raises(ConfigurationError, match="incomplete"):
            merge_campaign(camp)

        report = run_worker(camp, worker_id="rescuer")
        assert victim.shard_id in report.shards_reclaimed
        assert victim.shard_id in report.shards_executed
        _assert_matches_reference(tmp_path, camp, reference)
