"""Command-line interface."""

import json
import shlex

import pytest

from repro.cli import BUILTIN_SPECS, build_parser, main
from repro.experiments import FIGURES


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.benchmark == "Web-med"
        assert args.cooling == "Var"
        assert args.layers == 2

    def test_rejects_bad_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--policy", "FIFO"])

    def test_registry_keys_and_aliases_are_choices(self):
        args = build_parser().parse_args([
            "simulate", "--policy", "rr", "--controller", "pid",
        ])
        assert args.policy == "rr"
        assert args.controller == "pid"


class TestListCommand:
    def test_list_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "-- policies --" in out
        assert "-- controllers --" in out
        assert "-- forecasters --" in out

    def test_list_policies(self, capsys):
        assert main(["list", "policies"]) == 0
        out = capsys.readouterr().out
        for key in ("LB", "Mig", "TALB", "RR"):
            assert key in out
        assert "uses_thermal_weights" in out  # TALB's trait.
        assert "controllers" not in out

    def test_list_controllers_shows_param_schemas(self, capsys):
        assert main(["list", "controllers"]) == 0
        out = capsys.readouterr().out
        for key in ("lut", "stepwise", "pid"):
            assert key in out
        assert "kp: float = 1.5" in out
        assert "needs_flow_table" in out

    def test_list_rejects_unknown_role(self):
        with pytest.raises(SystemExit):
            main(["list", "gizmos"])


class TestCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "Web-high" in out
        assert "gzip" in out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "1041.667" in out  # Max per-cavity flow, 2-layer.
        assert "21.000" in out    # Max pump power.

    def test_simulate_with_export(self, tmp_path, capsys):
        json_path = tmp_path / "run.json"
        csv_path = tmp_path / "run.csv"
        code = main(
            [
                "simulate",
                "--benchmark", "gzip",
                "--policy", "LB",
                "--cooling", "Max",
                "--duration", "2.0",
                "--save-json", str(json_path),
                "--save-csv", str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "peak_temperature_sensor" in out
        payload = json.loads(json_path.read_text())
        assert payload["summary"]["intervals"] == 20
        assert csv_path.read_text().startswith("time_s,")

    def test_simulate_registry_components_with_params(self, capsys):
        code = main(
            [
                "simulate",
                "--benchmark", "gzip",
                "--policy", "round-robin",
                "--controller", "pid",
                "--controller-param", "kp=2.0",
                "--controller-param", "margin=2",
                "--duration", "2.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RR (Var)" in out
        assert "pump_energy_j" in out

    def test_simulate_forecaster_params(self, capsys):
        code = main(
            [
                "simulate",
                "--benchmark", "gzip",
                "--forecaster", "arma",
                "--forecaster-param", "window=100",
                "--duration", "2.0",
            ]
        )
        assert code == 0
        assert "peak_temperature_sensor" in capsys.readouterr().out

    def test_simulate_bad_param_is_clear_error(self):
        with pytest.raises(SystemExit, match="no parameter"):
            main([
                "simulate", "--controller", "pid",
                "--controller-param", "bogus=1", "--duration", "1.0",
            ])
        with pytest.raises(SystemExit, match="NAME=VALUE"):
            main([
                "simulate", "--controller", "pid",
                "--controller-param", "kp", "--duration", "1.0",
            ])

    def test_simulate_stepwise_controller(self, capsys):
        code = main(
            [
                "simulate",
                "--benchmark", "gzip",
                "--cooling", "Var",
                "--controller", "stepwise",
                "--duration", "2.0",
            ]
        )
        assert code == 0
        assert "pump_energy_j" in capsys.readouterr().out

    def test_simulate_trace_replay(self, tmp_path, capsys):
        """An mpstat-style CSV drives the run; its length wins over
        --duration."""
        trace_path = tmp_path / "load.csv"
        lines = ["second,utilization_pct"]
        lines += [f"{s},40.0" for s in range(3)]
        trace_path.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "simulate",
                "--benchmark", "Web-med",
                "--cooling", "Max",
                "--policy", "LB",
                "--duration", "99.0",
                "--trace-csv", str(trace_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "intervals                 : 30" in out  # 3 s, not 99 s.

    def test_trace_csv_is_the_trace_replay_model(self, tmp_path):
        """--trace-csv X equals --workload trace-replay
        --workload-param path=X --duration <trace length>."""
        trace_path = tmp_path / "load.csv"
        lines = ["second,utilization_pct"]
        lines += [f"{s},{pct}" for s, pct in enumerate((20.0, 75.0, 50.0, 90.0))]
        trace_path.write_text("\n".join(lines) + "\n")
        common = ["simulate", "--benchmark", "gzip", "--policy", "LB", "--seed", "3"]
        shorthand, explicit = tmp_path / "a.json", tmp_path / "b.json"
        assert main(common + [
            "--trace-csv", str(trace_path), "--save-json", str(shorthand),
        ]) == 0
        assert main(common + [
            "--workload", "trace-replay",
            "--workload-param", f"path={trace_path}",
            "--duration", "4", "--save-json", str(explicit),
        ]) == 0
        assert shorthand.read_bytes() == explicit.read_bytes()

    @pytest.mark.parametrize("benchmark_name", ["Web-med", "gzip"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_trace_replay_threads_match_direct_replay(self, benchmark_name, seed):
        """The trace-replay model over a whole file yields exactly the
        threads of replaying the profile directly."""
        from repro.sim.cache import CharacterizationCache
        from repro.sim.config import SimulationConfig
        from repro.workload.benchmarks import benchmark
        from repro.workload.models import SAMPLE_TRACE_PATH
        from repro.workload.traces import UtilizationTrace, generate_from_utilization

        profile = UtilizationTrace.from_csv(SAMPLE_TRACE_PATH, n_cores=8)
        direct = generate_from_utilization(profile, benchmark(benchmark_name), seed=seed)
        config = SimulationConfig(
            benchmark_name=benchmark_name, seed=seed, duration=profile.duration,
            workload="trace-replay", workload_params={"path": str(SAMPLE_TRACE_PATH)},
        )
        replayed = CharacterizationCache().thread_trace(config)
        assert replayed.duration == direct.duration
        assert [(t.thread_id, t.arrival, t.length) for t in replayed.threads] == [
            (t.thread_id, t.arrival, t.length) for t in direct.threads
        ]

    def test_trace_csv_refuses_another_workload(self, tmp_path):
        with pytest.raises(SystemExit, match="trace-replay"):
            main([
                "simulate", "--trace-csv", str(tmp_path / "x.csv"),
                "--workload", "diurnal",
            ])


class TestFigureCommands:
    """One subcommand per :data:`FIGURES` entry, built from the table."""

    @pytest.mark.parametrize("name", list(FIGURES))
    def test_parses_sweep_flags(self, name):
        args = build_parser().parse_args(
            [name, "--duration", "3.5", "--seed", "7", "--workers", "2"]
        )
        assert (args.command, args.duration, args.seed, args.workers) == (
            name, 3.5, 7, 2,
        )

    def test_rejects_zero_workers(self):
        with pytest.raises(SystemExit, match="--workers must be >= 1"):
            main(["headline", "--duration", "0.5", "--workers", "0"])

    def test_fourlayer_prints_liquid_rows(self, capsys):
        assert main(["fourlayer", "--duration", "0.5"]) == 0
        out = capsys.readouterr().out
        for label in ("LB (Max)", "TALB (Max)", "TALB (Var)"):
            assert label in out

    def test_workers_print_what_serial_prints(self, capsys):
        assert main(["headline", "--duration", "0.5"]) == 0
        serial = capsys.readouterr().out
        assert main(["headline", "--duration", "0.5", "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_builtin_spec_names(self):
        assert set(BUILTIN_SPECS) == {
            "fig6", "fig7", "fig8", "headline", "fourlayer",
            "ablations", "hysteresis", "controllers", "workloads", "facility",
        }


class TestBatchCommand:
    def test_batch_defaults(self):
        args = build_parser().parse_args(["batch"])
        assert args.workloads == "all"
        assert args.policies == "TALB"
        assert args.cooling == "Var"
        assert args.workers == 1

    def test_batch_runs_and_exports(self, tmp_path, capsys):
        json_path = tmp_path / "batch.json"
        csv_path = tmp_path / "batch.csv"
        code = main(
            [
                "batch",
                "--workloads", "gzip,MPlayer",
                "--policies", "LB",
                "--cooling", "Air,Max",
                "--duration", "2.0",
                "--save-json", str(json_path),
                "--save-csv", str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "batch: 4 runs" in out
        assert "LB (Air)" in out and "LB (Max)" in out
        payload = json.loads(json_path.read_text())
        assert payload["n_runs"] == 4
        assert payload["name"] == "batch"
        assert csv_path.read_text().startswith("run,key,benchmark,")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_batch_exports_equal_sweep_run(self, tmp_path, workers):
        """repro batch is a spec builder: its CSV/JSON are byte-identical
        to repro sweep run on the equivalent spec file."""
        batch_csv, batch_json = tmp_path / "batch.csv", tmp_path / "batch.json"
        assert main([
            "batch", "--workloads", "gzip,Web-high", "--policies", "TALB,LB",
            "--cooling", "Var,Air", "--duration", "0.5", "--reseed", "7",
            "--workers", workers,
            "--save-csv", str(batch_csv), "--save-json", str(batch_json),
        ]) == 0
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "batch",
            "base": {"layers": 2, "duration": 0.5, "seed": 0, "dpm": False},
            "grid": {
                "benchmark": ["gzip", "Web-high"],
                "policy": ["TALB", "LB"],
                "cooling": ["Var", "Air"],
            },
            "reseed": 7,
        }))
        sweep_csv, sweep_json = tmp_path / "sweep.csv", tmp_path / "sweep.json"
        assert main([
            "sweep", "run", "--spec", str(spec), "--quiet",
            "--save-csv", str(sweep_csv), "--save-json", str(sweep_json),
        ]) == 0
        assert batch_csv.read_bytes() == sweep_csv.read_bytes()
        assert batch_json.read_bytes() == sweep_json.read_bytes()
        rows = json.loads(batch_json.read_text())["rows"]
        # Workloads outermost, cooling fastest: the old nested-loop order.
        assert [(r["benchmark"], r["policy"], r["cooling"]) for r in rows[:3]] == [
            ("gzip", "TALB", "Var"), ("gzip", "TALB", "Air"), ("gzip", "LB", "Var"),
        ]
        assert [r["seed"] for r in rows] == list(range(7, 15))

    def test_batch_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["batch", "--workloads", "NotABenchmark", "--duration", "1.0"])

    def test_batch_reseed(self, capsys):
        code = main(
            [
                "batch",
                "--workloads", "gzip",
                "--policies", "LB",
                "--cooling", "Air",
                "--duration", "2.0",
                "--reseed", "40",
            ]
        )
        assert code == 0
        assert "batch: 1 runs" in capsys.readouterr().out


class TestSweepCommand:
    @staticmethod
    def _spec_file(tmp_path, duration=1.0):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "clitest",
            "base": {"duration": duration},
            "grid": {"benchmark": ["gzip", "MPlayer"], "cooling": ["Var", "Max"]},
        }))
        return str(path)

    def test_sweep_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_run_with_spec_file_and_exports(self, tmp_path, capsys):
        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "out.csv"
        code = main([
            "sweep", "run",
            "--spec", self._spec_file(tmp_path),
            "--save-json", str(json_path),
            "--save-csv", str(csv_path),
            "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "clitest: 4 runs" in out
        assert "sweep: 4/4 folded" in out
        assert "scalar aggregates" in out
        payload = json.loads(json_path.read_text())
        assert payload["n_runs"] == 4
        assert len(payload["rows"]) == 4
        assert "scalar" in payload["aggregates"]
        assert csv_path.read_text().startswith("run,key,")

    def test_run_builtin_spec_name(self, capsys):
        # One folded run of the headline declaration keeps this cheap.
        code = main([
            "sweep", "run",
            "--spec", "headline",
            "--duration", "1.0",
            "--stop-after", "1",
            "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "headline: 16 runs" in out
        assert "sweep incomplete" in out

    def test_interrupt_resume_status_round_trip(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path)
        ck = tmp_path / "ck.jsonl"
        code = main([
            "sweep", "run", "--spec", spec,
            "--checkpoint", str(ck), "--stop-after", "2", "--quiet",
        ])
        assert code == 0
        assert "sweep incomplete (2 runs left)" in capsys.readouterr().out

        code = main(["sweep", "status", "--checkpoint", str(ck)])
        assert code == 0
        out = capsys.readouterr().out
        assert "2/4 runs (50.0%)" in out

        code = main([
            "sweep", "resume", "--spec", spec,
            "--checkpoint", str(ck), "--quiet",
        ])
        assert code == 0
        assert "2 restored from checkpoint, 2 run now" in capsys.readouterr().out

    def test_printed_resume_command_runs_verbatim(self, tmp_path, capsys):
        """The resume hint echoes every fingerprint-shaping flag, --solver
        included, so pasting it continues the same sweep."""
        ck = tmp_path / "ck.jsonl"
        code = main([
            "sweep", "run", "--spec", self._spec_file(tmp_path, duration=0.5),
            "--solver", "krylov", "--checkpoint", str(ck),
            "--stop-after", "1", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        hint = out.split("continue with: ", 1)[1].splitlines()[0]
        argv = shlex.split(hint)
        assert argv[:3] == ["repro", "sweep", "resume"]
        assert "--solver" in argv
        code = main(argv[1:] + ["--quiet"])
        assert code == 0
        assert "1 restored from checkpoint, 3 run now" in capsys.readouterr().out

    def test_unknown_spec_is_clear_error(self):
        with pytest.raises(SystemExit, match="neither a built-in name"):
            main(["sweep", "run", "--spec", "not-a-spec"])

    def test_status_missing_checkpoint_is_clear_error(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["sweep", "status", "--checkpoint", str(tmp_path / "no.jsonl")])

    def test_malformed_spec_file_is_clear_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["sweep", "run", "--spec", str(path)])

    def test_unknown_spec_field_is_clear_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"grid": {"bogus_field": [1]}}))
        with pytest.raises(SystemExit, match="bad sweep spec"):
            main(["sweep", "run", "--spec", str(path)])

    def test_bad_builtin_duration_is_clear_error(self):
        with pytest.raises(SystemExit, match="bad sweep spec"):
            main(["sweep", "run", "--spec", "headline", "--duration", "-1"])

    def test_stop_after_without_checkpoint_warns(self, tmp_path, capsys):
        code = main([
            "sweep", "run", "--spec", self._spec_file(tmp_path),
            "--stop-after", "1", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "progress is NOT saved" in out
        assert "resume" not in out  # No unusable resume hint.

    def test_resume_with_missing_checkpoint_is_clear_error(self, tmp_path):
        # A typo'd path must error, not silently restart from scratch.
        with pytest.raises(SystemExit, match="does not exist"):
            main([
                "sweep", "resume", "--spec", self._spec_file(tmp_path),
                "--checkpoint", str(tmp_path / "typo.jsonl"),
            ])

    def test_duration_rejected_for_spec_files(self, tmp_path):
        with pytest.raises(SystemExit, match="built-in specs only"):
            main([
                "sweep", "run",
                "--spec", self._spec_file(tmp_path),
                "--duration", "5.0",
            ])


class TestMissingOutputDirectoryErrors:
    """A typo'd output path fails fast with a message, not a traceback."""

    def test_batch_save_csv(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main([
                "batch", "--workloads", "gzip", "--policies", "LB",
                "--cooling", "Air", "--duration", "1.0",
                "--save-csv", str(tmp_path / "missing" / "out.csv"),
            ])

    def test_batch_save_json(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main([
                "batch", "--workloads", "gzip", "--policies", "LB",
                "--cooling", "Air", "--duration", "1.0",
                "--save-json", str(tmp_path / "missing" / "out.json"),
            ])

    def test_sweep_save_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "base": {"duration": 1.0}, "grid": {"benchmark": ["gzip"]},
        }))
        with pytest.raises(SystemExit, match="does not exist"):
            main([
                "sweep", "run", "--spec", str(path), "--quiet",
                "--save-json", str(tmp_path / "missing" / "out.json"),
            ])

    def test_sweep_checkpoint_parent(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "base": {"duration": 1.0}, "grid": {"benchmark": ["gzip"]},
        }))
        with pytest.raises(SystemExit, match="does not exist"):
            main([
                "sweep", "run", "--spec", str(path), "--quiet",
                "--checkpoint", str(tmp_path / "missing" / "ck.jsonl"),
            ])

    def test_simulate_save_json(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main([
                "simulate", "--duration", "1.0",
                "--save-json", str(tmp_path / "missing" / "out.json"),
            ])
