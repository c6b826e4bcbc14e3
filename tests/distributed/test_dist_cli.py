"""The ``repro dist`` CLI, including the 2-worker end-to-end smoke.

``test_two_concurrent_workers_match_single_host`` is the gating CI
acceptance check: plan a tiny campaign, run two real worker processes
concurrently against the shared directory, merge, and require the
completion JSON and CSV to be byte-identical to ``repro sweep run`` on
one host.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.io.dist import read_ledger

from counters import Counters


def spec_file(tmp_path, duration=1.0):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "name": "distcli",
        "base": {"duration": duration},
        "grid": {"benchmark": ["gzip", "MPlayer"], "cooling": ["Var", "Max"]},
    }))
    return str(path)


class TestPlanStatus:
    def test_plan_writes_ledger_and_reports(self, tmp_path, capsys):
        code = main([
            "dist", "plan", "--spec", spec_file(tmp_path),
            "--dir", str(tmp_path / "camp"), "--chunk-size", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 runs in 2 shard(s)" in out
        assert (tmp_path / "camp" / "ledger.jsonl").is_file()

    def test_plan_is_idempotent(self, tmp_path, capsys):
        spec = spec_file(tmp_path)
        camp = str(tmp_path / "camp")
        assert main(["dist", "plan", "--spec", spec, "--dir", camp]) == 0
        capsys.readouterr()
        assert main(["dist", "plan", "--spec", spec, "--dir", camp]) == 0
        assert "already planned" in capsys.readouterr().out

    def test_plan_builtin_spec_name(self, tmp_path, capsys):
        code = main([
            "dist", "plan", "--spec", "ablations", "--duration", "1.0",
            "--dir", str(tmp_path / "camp"), "--chunk-size", "2",
        ])
        assert code == 0
        assert "4 runs in 2 shard(s)" in capsys.readouterr().out

    def test_plan_rejects_bad_chunk_size(self, tmp_path):
        with pytest.raises(SystemExit, match="chunk-size"):
            main([
                "dist", "plan", "--spec", spec_file(tmp_path),
                "--dir", str(tmp_path / "camp"), "--chunk-size", "0",
            ])

    def test_status_on_non_campaign_dir_is_clear_error(self, tmp_path):
        with pytest.raises(SystemExit, match="dist plan"):
            main(["dist", "status", "--dir", str(tmp_path)])

    def test_status_reports_progress(self, tmp_path, capsys):
        spec = spec_file(tmp_path)
        camp = str(tmp_path / "camp")
        main(["dist", "plan", "--spec", spec, "--dir", camp,
              "--chunk-size", "1"])
        main(["dist", "work", "--dir", camp, "--max-shards", "2", "--quiet"])
        capsys.readouterr()
        assert main(["dist", "status", "--dir", camp]) == 0
        out = capsys.readouterr().out
        assert "2/4 done" in out
        assert "2/4 journaled-complete" in out


class TestPlanSolver:
    """The solver tier is planned: it enters the spec and fingerprint,
    and workers run exactly what the ledger says."""

    @staticmethod
    def _plan(tmp_path, name, *extra):
        camp = str(tmp_path / name)
        path = tmp_path / "solver-spec.json"
        path.write_text(json.dumps({
            "name": "distsolver",
            "base": {"duration": 0.5, "nx": 12, "ny": 12, "cooling": "Max"},
            "grid": {"thermal_params.resistance_scale": [4.0, 4.4]},
        }))
        assert main(["dist", "plan", "--spec", str(path), "--dir", camp, *extra]) == 0
        return camp

    def test_krylov_plan_changes_the_fingerprint(self, tmp_path):
        default = read_ledger(self._plan(tmp_path, "default")).fingerprint
        exact = read_ledger(self._plan(tmp_path, "exact", "--solver", "exact")).fingerprint
        krylov = read_ledger(self._plan(tmp_path, "krylov", "--solver", "krylov")).fingerprint
        assert exact == default
        assert krylov != exact

    def test_krylov_plan_workers_run_gmres(self, tmp_path):
        exact = self._plan(tmp_path, "exact", "--solver", "exact")
        krylov = self._plan(tmp_path, "krylov", "--solver", "krylov")
        counts = Counters()
        assert main(["dist", "work", "--dir", exact, "--quiet"]) == 0
        assert sum(counts.krylov().values()) == 0
        counts = Counters()
        assert main(["dist", "work", "--dir", krylov, "--quiet"]) == 0
        assert counts.krylov()["gmres_solves"] > 0

    def test_work_rejects_solver(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["dist", "work", "--dir", str(tmp_path), "--solver", "krylov"])
        assert excinfo.value.code == 2


class TestWorkMerge:
    def test_single_worker_and_merge_exports(self, tmp_path, capsys):
        spec = spec_file(tmp_path)
        camp = str(tmp_path / "camp")
        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "out.csv"
        main(["dist", "plan", "--spec", spec, "--dir", camp,
              "--chunk-size", "3"])
        assert main(["dist", "work", "--dir", camp, "--quiet"]) == 0
        capsys.readouterr()
        code = main([
            "dist", "merge", "--dir", camp,
            "--save-json", str(json_path), "--save-csv", str(csv_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "merge: 4/4 runs from 2 shard(s)" in out
        payload = json.loads(json_path.read_text())
        assert payload["n_runs"] == 4
        assert set(payload["aggregates"]) == {
            "scalar", "cells", "histogram", "quantile", "moments",
            "histogram_5",
        }
        assert csv_path.read_text().startswith("run,key,")

    def test_merge_incomplete_campaign_is_clear_error(self, tmp_path):
        spec = spec_file(tmp_path)
        camp = str(tmp_path / "camp")
        main(["dist", "plan", "--spec", spec, "--dir", camp,
              "--chunk-size", "1"])
        main(["dist", "work", "--dir", camp, "--max-shards", "1", "--quiet"])
        with pytest.raises(SystemExit, match="incomplete"):
            main(["dist", "merge", "--dir", camp])

    def test_merge_partial_folds_prefix(self, tmp_path, capsys):
        spec = spec_file(tmp_path)
        camp = str(tmp_path / "camp")
        main(["dist", "plan", "--spec", spec, "--dir", camp,
              "--chunk-size", "1"])
        main(["dist", "work", "--dir", camp, "--max-shards", "2", "--quiet"])
        capsys.readouterr()
        assert main(["dist", "merge", "--dir", camp, "--partial"]) == 0
        assert "merge: 2/4 runs" in capsys.readouterr().out


class TestTwoWorkerSmoke:
    def test_two_concurrent_workers_match_single_host(self, tmp_path, capsys):
        """Plan -> two real worker processes -> merge == sweep run."""
        spec = spec_file(tmp_path)
        camp = str(tmp_path / "camp")
        assert main([
            "dist", "plan", "--spec", spec, "--dir", camp, "--chunk-size", "1",
        ]) == 0

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        workers = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "dist", "work",
                    "--dir", camp, "--worker-id", f"smoke-w{i}",
                    "--lease-ttl", "120", "--poll-interval", "0.1", "--quiet",
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for i in (1, 2)
        ]
        for worker in workers:
            stdout, stderr = worker.communicate(timeout=300)
            assert worker.returncode == 0, stderr
            assert "executed" in stdout

        dist_json = tmp_path / "dist.json"
        dist_csv = tmp_path / "dist.csv"
        assert main([
            "dist", "merge", "--dir", camp,
            "--save-json", str(dist_json), "--save-csv", str(dist_csv),
        ]) == 0

        ref_json = tmp_path / "ref.json"
        ref_csv = tmp_path / "ref.csv"
        assert main([
            "sweep", "run", "--spec", spec, "--quiet",
            "--save-json", str(ref_json), "--save-csv", str(ref_csv),
        ]) == 0

        assert dist_json.read_bytes() == ref_json.read_bytes()
        assert dist_csv.read_bytes() == ref_csv.read_bytes()
