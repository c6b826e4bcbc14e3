"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's entry points so the whole evaluation can
be driven without writing Python:

* ``simulate`` — one configured run, with optional JSON/CSV export;
* ``batch`` — a (workload x policy x cooling) grid declared as a
  :class:`repro.sweep.SweepSpec` named ``batch`` and run through
  :class:`repro.sweep.SweepRunner` (no checkpoint), optionally fanned
  out over worker processes; its JSON/CSV exports are the sweep
  exports, byte-identical to ``sweep run`` on the equivalent spec;
* ``sweep run | resume | status`` — declarative checkpointed campaigns
  through :class:`repro.sweep.SweepRunner`: ``--spec`` names a built-in
  declaration (a figure name from :data:`repro.experiments.FIGURES`,
  ``ablations``, ``hysteresis``, ``controllers``, ``workloads``,
  ``facility``) or a JSON/YAML spec file, progress streams (rate-limited) as runs fold, and an
  interrupted campaign resumes from its checkpoint with bit-identical
  aggregates and exports;
* ``dist plan | work | merge | status`` — the same campaigns sharded
  across worker processes and hosts (:mod:`repro.dist`): ``plan``
  writes the leased work ledger, any number of ``work`` loops execute
  shards (with stale-lease reclaim when a worker crashes), and
  ``merge`` folds the shard journals into aggregates/CSV/JSON
  byte-identical to a single-host ``sweep run``;
* ``telemetry summary | validate`` — inspect the trace JSONL files the
  ``--trace`` flags (on ``simulate``, ``sweep run|resume``, and ``dist
  work``) export: per-span timing breakdowns, the final metrics
  snapshot, and schema validation for CI gating;
* ``list policies | controllers | forecasters | workloads |
  facilities`` — the registered component keys
  (:mod:`repro.registry`), each with its aliases and declared
  parameter schema; any key shown here is a valid
  ``--policy``/``--controller``/``--forecaster``/``--workload``/
  ``--facility`` value and a valid sweep-spec axis value, and its
  parameters are settable via ``--policy-param NAME=VALUE``
  (repeatable) or the dotted ``policy_params.<name>`` /
  ``controller_params.<name>`` / ``workload_params.<name>`` /
  ``facility_params.<name>`` sweep axes;
* ``fig3 | fig5 | table2 | ablations`` and one command per
  :data:`repro.experiments.FIGURES` entry (``fig6 | fig7 | fig8 |
  headline | fourlayer``) — regenerate a table/figure and print its
  rows (the figure sweeps accept ``--workers`` for process fan-out);
* ``calibrate`` — re-derive the documented resistance scales;
* ``workloads`` — list the Table II benchmarks.
"""

from __future__ import annotations

import argparse
import shlex
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.dist.plan import DEFAULT_CHUNK_SIZE
from repro.dist.worker import DEFAULT_LEASE_TTL
from repro.errors import ConfigurationError, WorkloadError
from repro.experiments import (
    FIGURES,
    ablations,
    common,
    fig3,
    fig5,
    run_figures,
    sweeps as experiment_sweeps,
    table2,
)
from repro.progress import ProgressReporter
from repro.io.serialize import result_summary, save_result, write_timeseries_csv
from repro.registry import (
    Registry,
    controller_registry,
    facility_registry,
    forecaster_registry,
    policy_registry,
    workload_registry,
)
from repro.sim.config import CoolingMode, SimulationConfig
from repro.sim.engine import simulate
from repro.workload.benchmarks import TABLE_II

#: Built-in sweep declarations ``repro sweep run --spec <name>`` and
#: ``repro dist plan --spec <name>`` accept.
BUILTIN_SPECS = {
    **{name: figure.sweep_spec for name, figure in FIGURES.items()},
    "ablations": ablations.controller_ablation_spec,
    "hysteresis": experiment_sweeps.hysteresis_spec,
    "controllers": experiment_sweeps.controller_family_spec,
    "workloads": experiment_sweeps.workload_family_spec,
    "facility": experiment_sweeps.facility_headline_spec,
}


def _registry_choices(registry: Registry) -> list[str]:
    """Accepted argparse values: canonical keys plus declared aliases."""
    return sorted(set(registry.keys()) | set(registry.known_names()))


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Energy-efficient variable-flow liquid cooling "
        "in 3D stacked architectures (DATE 2010 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one simulation")
    sim.add_argument("--benchmark", default="Web-med", help="Table II workload")
    sim.add_argument(
        "--policy",
        default="TALB",
        choices=_registry_choices(policy_registry()),
        help="scheduling policy (registry key; see 'repro list policies')",
    )
    sim.add_argument(
        "--policy-param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="set one declared policy parameter (repeatable)",
    )
    sim.add_argument(
        "--cooling",
        default="Var",
        choices=[c.value for c in CoolingMode],
        help="Air, Max (worst-case flow), or Var (the controller)",
    )
    sim.add_argument(
        "--controller",
        default="lut",
        choices=_registry_choices(controller_registry()),
        help="variable-flow controller (registry key; see "
        "'repro list controllers')",
    )
    sim.add_argument(
        "--controller-param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="set one declared controller parameter (repeatable)",
    )
    sim.add_argument(
        "--forecaster",
        default="arma",
        choices=_registry_choices(forecaster_registry()),
        help="maximum-temperature forecaster (registry key)",
    )
    sim.add_argument(
        "--forecaster-param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="set one declared forecaster parameter (repeatable)",
    )
    sim.add_argument(
        "--workload",
        default="table2",
        choices=_registry_choices(workload_registry()),
        help="workload model building the thread trace (registry key; "
        "see 'repro list workloads')",
    )
    sim.add_argument(
        "--workload-param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="set one declared workload-model parameter (repeatable), "
        "e.g. --workload-param path=trace.csv for trace-replay",
    )
    sim.add_argument(
        "--facility",
        default="none",
        choices=_registry_choices(facility_registry()),
        help="facility cooling plant co-simulated with the chip "
        "(registry key; see 'repro list facilities'); 'none' keeps "
        "the classic fixed-inlet boundary",
    )
    sim.add_argument(
        "--facility-param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="set one declared facility parameter (repeatable), "
        "e.g. --facility-param wet_bulb_c=14",
    )
    sim.add_argument("--layers", type=int, default=2, choices=(2, 4))
    sim.add_argument(
        "--solver",
        default="exact",
        choices=("exact", "krylov"),
        help="thermal linear-solver tier: exact (sparse LU, "
        "bit-reproducible) or krylov (neighbor-preconditioned GMRES, "
        "reuses nearby design points' factorizations; see README)",
    )
    sim.add_argument("--duration", type=float, default=20.0, help="simulated seconds")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--dpm", action="store_true", help="enable the 200 ms DPM policy")
    sim.add_argument(
        "--trace-csv",
        metavar="PATH",
        help="replay an mpstat-style utilization trace (second,"
        "utilization_pct CSV) instead of the stationary generator; "
        "the run length becomes the trace length (shorthand for "
        "--workload trace-replay --workload-param path=PATH "
        "--duration <trace length>)",
    )
    sim.add_argument("--save-json", metavar="PATH", help="write the full result as JSON")
    sim.add_argument("--save-csv", metavar="PATH", help="write the time series as CSV")
    sim.add_argument(
        "--trace", metavar="PATH",
        help="record span telemetry and export it as trace JSONL "
        "(inspect with 'repro telemetry summary')",
    )

    batch = sub.add_parser(
        "batch",
        help="run a (workload x policy x cooling) sweep, optionally in parallel",
        description="Cross-product sweep: every combination of --workloads, "
        "--policies, and --cooling becomes one run of a sweep spec named "
        "'batch' (workloads outermost, cooling fastest), executed like "
        "'repro sweep run' without a checkpoint. --save-csv/--save-json "
        "write the sweep export format, byte-identical to 'repro sweep "
        "run' on the equivalent spec file and to any --workers value.",
    )
    batch.add_argument(
        "--workloads",
        default="all",
        help="comma-separated Table II benchmarks, or 'all' (default)",
    )
    batch.add_argument(
        "--policies",
        default="TALB",
        help="comma-separated policy registry keys (%s), or 'all' for "
        "every registered policy" % ",".join(policy_registry().keys()),
    )
    batch.add_argument(
        "--cooling",
        default="Var",
        help="comma-separated cooling modes (%s), or 'all'"
        % ",".join(c.value for c in CoolingMode),
    )
    batch.add_argument("--layers", type=int, default=2, choices=(2, 4))
    batch.add_argument("--duration", type=float, default=common.DEFAULT_DURATION)
    batch.add_argument("--seed", type=int, default=0)
    batch.add_argument("--dpm", action="store_true", help="enable the 200 ms DPM policy")
    batch.add_argument(
        "--reseed",
        type=int,
        metavar="BASE",
        help="give run i the seed BASE+i (distinct stochastic instances)",
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = serial; results are identical)",
    )
    batch.add_argument(
        "--save-json", metavar="PATH",
        help="write rows + aggregates as sweep completion JSON",
    )
    batch.add_argument(
        "--save-csv", metavar="PATH", help="write one CSV row per run"
    )

    sweep = sub.add_parser(
        "sweep",
        help="declarative checkpointed sweeps (run / resume / status)",
        description="Declarative sweep campaigns: a spec (built-in name or "
        "JSON/YAML file) expands to runs, results stream into incremental "
        "aggregators, and progress journals to a checkpoint so interrupted "
        "campaigns resume without recomputation (bit-identical exports).",
    )
    swsub = sweep.add_subparsers(dest="sweep_command", required=True)

    def _sweep_exec_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="worker processes (1 = serial; results are identical)",
        )
        p.add_argument(
            "--checkpoint", metavar="PATH",
            help="journal file for checkpoint/resume",
        )
        p.add_argument(
            "--stop-after", type=int, metavar="K",
            help="fold at most K runs this session, then checkpoint and exit",
        )
        p.add_argument(
            "--save-json", metavar="PATH",
            help="write rows + aggregates as JSON when the sweep completes",
        )
        p.add_argument(
            "--save-csv", metavar="PATH",
            help="stream one CSV row per run as the sweep folds",
        )
        p.add_argument(
            "--quiet", action="store_true", help="suppress per-run progress"
        )
        p.add_argument(
            "--trace", metavar="PATH",
            help="record span telemetry during the sweep and export it "
            "as trace JSONL (results stay byte-identical)",
        )

    sw_run = swsub.add_parser(
        "run",
        help="start a sweep",
        description="Start a declared sweep. --spec is a built-in name "
        f"({', '.join(BUILTIN_SPECS)}) or a JSON/YAML spec file with "
        "base/grid/zip/points/reseed keys.",
    )
    sw_run.add_argument("--spec", required=True, metavar="NAME|FILE")
    sw_run.add_argument(
        "--duration", type=float, default=None,
        help="simulated seconds per run (built-in specs only)",
    )
    sw_run.add_argument(
        "--seed", type=int, default=None, help="base seed (built-in specs only)"
    )
    sw_run.add_argument(
        "--resume", action="store_true",
        help="continue from --checkpoint if it already exists",
    )
    sw_run.add_argument(
        "--solver", default=None, choices=("exact", "krylov"),
        help="override the base config's thermal-solver tier; changes "
        "the sweep fingerprint, so exact and krylov checkpoints never "
        "mix (resume with the same --solver)",
    )
    _sweep_exec_args(sw_run)

    sw_resume = swsub.add_parser(
        "resume",
        help="continue an interrupted sweep from its checkpoint",
    )
    sw_resume.add_argument("--spec", required=True, metavar="NAME|FILE")
    sw_resume.add_argument("--duration", type=float, default=None)
    sw_resume.add_argument("--seed", type=int, default=None)
    sw_resume.add_argument(
        "--solver", default=None, choices=("exact", "krylov"),
        help="must match the --solver the sweep was started with",
    )
    _sweep_exec_args(sw_resume)

    sw_status = swsub.add_parser(
        "status", help="report a checkpoint's progress"
    )
    sw_status.add_argument("--checkpoint", required=True, metavar="PATH")

    dist = sub.add_parser(
        "dist",
        help="distributed campaigns (plan / work / merge / status)",
        description="Shard a sweep campaign across worker processes and "
        "hosts over a shared campaign directory: 'plan' writes the leased "
        "work ledger, any number of 'work' loops claim and execute shards "
        "(crashed workers' leases go stale and are reclaimed), and 'merge' "
        "folds the shard journals into aggregates, CSV, and completion "
        "JSON byte-identical to a single-host 'repro sweep run'.",
    )
    dsub = dist.add_subparsers(dest="dist_command", required=True)

    d_plan = dsub.add_parser(
        "plan",
        help="shard a sweep spec into a campaign work ledger",
        description="Write a campaign ledger. --spec is a built-in name "
        f"({', '.join(BUILTIN_SPECS)}) or a JSON/YAML spec file. "
        "Re-planning the identical campaign is a no-op.",
    )
    d_plan.add_argument("--spec", required=True, metavar="NAME|FILE")
    d_plan.add_argument(
        "--duration", type=float, default=None,
        help="simulated seconds per run (built-in specs only)",
    )
    d_plan.add_argument(
        "--seed", type=int, default=None, help="base seed (built-in specs only)"
    )
    d_plan.add_argument(
        "--dir", required=True, metavar="DIR",
        help="campaign directory (must be shared by every worker host)",
    )
    d_plan.add_argument(
        "--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE, metavar="N",
        help=f"runs per leased shard (default {DEFAULT_CHUNK_SIZE})",
    )
    d_plan.add_argument(
        "--solver", default=None, choices=("exact", "krylov"),
        help="override the base config's thermal-solver tier; it enters "
        "the spec and the campaign fingerprint, so every worker runs the "
        "planned tier (krylov reuses neighbor factorizations across "
        "thermal_params design points, within the documented tolerance "
        "of exact)",
    )

    d_work = dsub.add_parser(
        "work",
        help="claim and execute shard leases until the campaign is done",
    )
    d_work.add_argument("--dir", required=True, metavar="DIR")
    d_work.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="identity recorded in leases/journals (default host:pid)",
    )
    d_work.add_argument(
        "--workers", type=int, default=1,
        help="process fan-out within each shard (results are identical)",
    )
    d_work.add_argument(
        "--lease-ttl", type=float, default=DEFAULT_LEASE_TTL, metavar="S",
        help="seconds before an unrefreshed lease counts as stale "
        f"(default {DEFAULT_LEASE_TTL:.0f}; must exceed one run)",
    )
    d_work.add_argument(
        "--max-shards", type=int, default=None, metavar="K",
        help="execute at most K shards this session, then exit",
    )
    d_work.add_argument(
        "--poll-interval", type=float, default=0.5, metavar="S",
        help="seconds between scans while other workers hold all shards",
    )
    d_work.add_argument(
        "--no-wait", action="store_true",
        help="exit when nothing is claimable instead of waiting "
        "for other workers to finish",
    )
    d_work.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress"
    )
    d_work.add_argument(
        "--trace", metavar="PATH",
        help="record span telemetry for this worker session, export it "
        "as trace JSONL, and journal per-shard metric deltas for "
        "'repro dist merge' to aggregate (journals and results stay "
        "byte-identical without this flag)",
    )

    d_merge = dsub.add_parser(
        "merge",
        help="fold finished shard journals into the final aggregates",
    )
    d_merge.add_argument("--dir", required=True, metavar="DIR")
    d_merge.add_argument(
        "--save-json", metavar="PATH",
        help="write rows + aggregates as completion JSON "
        "(byte-identical to a single-host run's)",
    )
    d_merge.add_argument(
        "--save-csv", metavar="PATH", help="write one CSV row per run"
    )
    d_merge.add_argument(
        "--partial", action="store_true",
        help="merge the contiguous finished prefix even if shards are missing",
    )

    d_status = dsub.add_parser(
        "status", help="report a campaign directory's progress"
    )
    d_status.add_argument("--dir", required=True, metavar="DIR")

    tel = sub.add_parser(
        "telemetry",
        help="inspect and validate trace JSONL files",
        description="Work with the trace JSONL files the --trace flags "
        "export: 'summary' prints the per-span timing breakdown and the "
        "final metrics snapshot, 'validate' checks the file against the "
        "documented schema (every line parses, required span keys "
        "present, ids unique, children nested within parents) and exits "
        "non-zero on any violation — CI uses it as the telemetry gate.",
    )
    tsub = tel.add_subparsers(dest="telemetry_command", required=True)
    t_summary = tsub.add_parser(
        "summary", help="per-span timing breakdown of a trace file"
    )
    t_summary.add_argument("path", metavar="PATH", help="trace JSONL file")
    t_validate = tsub.add_parser(
        "validate", help="check a trace file against the schema"
    )
    t_validate.add_argument("path", metavar="PATH", help="trace JSONL file")

    sub.add_parser("fig3", help="pump power and per-cavity flows")
    # table2 is generator statistics only — nothing to fan out.
    t2 = sub.add_parser("table2", help="workload characteristics")
    t2.add_argument("--duration", type=float, default=common.DEFAULT_DURATION)
    t2.add_argument("--seed", type=int, default=0)
    for name, figure in FIGURES.items():
        p = sub.add_parser(name, help=figure.HELP)
        p.add_argument("--duration", type=float, default=common.DEFAULT_DURATION)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="worker processes for the sweep (results are identical)",
        )

    f5 = sub.add_parser("fig5", help="flow required to cool a given T_max")
    f5.add_argument("--layers", type=int, default=2, choices=(2, 4))
    f5.add_argument(
        "--continuous",
        action="store_true",
        help="also compute the continuous minimum-flow curve (slow)",
    )

    ab = sub.add_parser("ablations", help="controller design-choice ablations")
    ab.add_argument("--duration", type=float, default=15.0)

    cal = sub.add_parser("calibrate", help="re-derive the resistance scales")
    cal.add_argument(
        "--path",
        default="liquid",
        choices=("liquid", "air"),
        help="which cooling path to calibrate",
    )

    lister = sub.add_parser(
        "list",
        help="list registered components "
        "(policies/controllers/forecasters/workloads/facilities)",
        description="Show the component registry: every key in the chosen "
        "role with its aliases, capability traits, and declared parameter "
        "schema. Any key listed here works as a config value, a CLI "
        "--policy/--controller/--forecaster/--workload/--facility choice, "
        "and a sweep-spec axis value; parameters flow through "
        "--policy-param/--controller-param/--workload-param/"
        "--facility-param and the dotted "
        "policy_params.<name>/controller_params.<name>/"
        "workload_params.<name>/facility_params.<name> axes.",
    )
    lister.add_argument(
        "what",
        choices=("policies", "controllers", "forecasters", "workloads",
                 "facilities", "all"),
        nargs="?",
        default="all",
        help="which registry to list (default: all)",
    )

    sub.add_parser("workloads", help="list the Table II benchmarks")
    return parser


def _print_rows(rows: list[dict]) -> None:
    print(common.format_rows(rows))


def _parse_cli_params(items: list, what: str) -> dict:
    """Parse repeated ``NAME=VALUE`` flags into a parameter mapping.

    Values parse as JSON scalars where possible (``kp=1.5`` is a
    float, ``flag=true`` a bool) and fall back to plain strings; the
    registry's declared schema validates them either way.
    """
    import json

    params: dict = {}
    for item in items:
        name, sep, raw = item.partition("=")
        if not sep or not name:
            raise SystemExit(
                f"error: bad {what} {item!r}; expected NAME=VALUE"
            )
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        params[name] = value
    return params


def _cmd_simulate(args: argparse.Namespace) -> int:
    _checked_output(args.save_json, "JSON output")
    _checked_output(args.save_csv, "CSV output")
    _trace_enable(args.trace)
    workload = args.workload
    workload_params = _parse_cli_params(args.workload_param, "--workload-param")
    duration = args.duration
    if args.trace_csv:
        # Shorthand for the trace-replay model over the whole file.
        from repro.workload.traces import UtilizationTrace

        if workload != "table2" or workload_params:
            raise SystemExit(
                "error: --trace-csv selects the trace-replay workload; "
                "drop --workload/--workload-param"
            )
        try:
            # Only the profile's length is read here; the model rebuilds
            # the profile for the config's core count.
            profile = UtilizationTrace.from_csv(args.trace_csv, n_cores=1)
        except (OSError, WorkloadError) as exc:
            raise SystemExit(f"error: cannot read --trace-csv: {exc}") from None
        workload = "trace-replay"
        workload_params = {"path": args.trace_csv}
        duration = profile.duration
    try:
        config = SimulationConfig(
            benchmark_name=args.benchmark,
            policy=args.policy,
            policy_params=_parse_cli_params(args.policy_param, "--policy-param"),
            cooling=CoolingMode(args.cooling),
            controller=args.controller,
            controller_params=_parse_cli_params(
                args.controller_param, "--controller-param"
            ),
            forecaster=args.forecaster,
            forecaster_params=_parse_cli_params(
                args.forecaster_param, "--forecaster-param"
            ),
            workload=workload,
            workload_params=workload_params,
            facility=args.facility,
            facility_params=_parse_cli_params(
                args.facility_param, "--facility-param"
            ),
            n_layers=args.layers,
            duration=duration,
            seed=args.seed,
            dpm_enabled=args.dpm,
            solver=args.solver,
        )
    except ConfigurationError as exc:
        raise SystemExit(f"error: {exc}") from None
    result = simulate(config)
    print(f"run: {config.label()} / {config.benchmark_name} / "
          f"{config.n_layers}-layer / {config.duration:.0f}s")
    for key, value in result_summary(result).items():
        print(f"  {key:26s}: {value}")
    if args.save_json:
        save_result(result, args.save_json)
        print(f"  wrote JSON -> {args.save_json}")
    if args.save_csv:
        write_timeseries_csv(result, args.save_csv)
        print(f"  wrote CSV  -> {args.save_csv}")
    _trace_export(args.trace)
    return 0


def _validated_workers(args: argparse.Namespace) -> int:
    """Uniform --workers validation across batch and figure commands."""
    if args.workers < 1:
        raise SystemExit("--workers must be >= 1 (1 = serial)")
    return args.workers


def _checked_output(path_str: Optional[str], what: str) -> Optional[str]:
    """Fail fast — with a clear message, not a traceback — when an
    output path's parent directory does not exist.

    Validated before any simulation starts, so a typo'd path surfaces
    immediately instead of after an hours-long sweep.
    """
    if path_str is None:
        return None
    parent = Path(path_str).resolve().parent
    if not parent.is_dir():
        raise SystemExit(
            f"error: cannot write {what} {path_str!r}: "
            f"directory {str(parent)!r} does not exist"
        )
    return path_str


def _trace_enable(path_str: Optional[str]) -> Optional[str]:
    """Validate a ``--trace`` output path and switch span tracing on.

    A no-op (tracing stays disabled, zero overhead) when the flag was
    not given.
    """
    if path_str is None:
        return None
    from repro.telemetry import trace

    _checked_output(path_str, "trace output")
    trace.enable()
    return path_str


def _trace_export(path_str: Optional[str]) -> None:
    """Export the buffered spans + metrics snapshot to a ``--trace`` path."""
    if path_str is None:
        return
    from repro.telemetry import trace

    trace.export_trace(path_str)
    print(f"wrote trace -> {path_str}")


def _print_metrics_report(snapshot: dict, indent: str = "  ") -> None:
    """Render a metrics snapshot: counters, then per-span timings."""
    counters = snapshot.get("counters") or {}
    if counters:
        width = max(len(key) for key in counters)
        for key in sorted(counters):
            print(f"{indent}{key:<{width}} {counters[key]}")
    timers = snapshot.get("timers") or {}
    if timers:
        width = max(len(key) for key in timers)
        for key in sorted(timers):
            stats = timers[key]
            print(
                f"{indent}{key:<{width}} count {stats.get('count', 0):>6} "
                f"total {stats.get('total_s', 0.0):.3f}s "
                f"max {stats.get('max_s', 0.0):.4f}s"
            )
    if not counters and not timers:
        print(f"{indent}(no metrics recorded)")


def _split_choices(raw: str, values: list[str], what: str) -> list[str]:
    """Parse a comma-separated choice list ('all' = every value)."""
    if raw.strip().lower() == "all":
        return list(values)
    chosen = [item.strip() for item in raw.split(",") if item.strip()]
    for item in chosen:
        if item not in values:
            raise SystemExit(
                f"unknown {what} {item!r}; choose from {', '.join(values)} or 'all'"
            )
    if not chosen:
        raise SystemExit(f"no {what} selected")
    return chosen


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.sweep import SweepRunner, SweepSpec

    _checked_output(args.save_json, "JSON output")
    _checked_output(args.save_csv, "CSV output")
    workloads = _split_choices(args.workloads, list(TABLE_II), "workload")
    if args.policies.strip().lower() == "all":
        policies = policy_registry().keys()
    else:
        policies = [p.strip() for p in args.policies.split(",") if p.strip()]
        if not policies:
            raise SystemExit("no policy selected")
    cooling_modes = _split_choices(
        args.cooling, [c.value for c in CoolingMode], "cooling mode"
    )
    workers = _validated_workers(args)
    try:
        # Grid order is run order: workloads outermost, cooling fastest.
        spec = SweepSpec(
            base=SimulationConfig(
                n_layers=args.layers,
                duration=args.duration,
                seed=args.seed,
                dpm_enabled=args.dpm,
            ),
            grid={
                "benchmark_name": workloads,
                "policy": policies,
                "cooling": cooling_modes,
            },
            reseed=args.reseed,
            name="batch",
        )
        result = SweepRunner(
            spec, max_workers=workers, csv_path=args.save_csv
        ).run()
    except ConfigurationError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(
        f"batch: {result.n_runs} runs x {args.duration:g}s, "
        f"{workers} worker(s), {result.wall_time:.2f}s"
    )
    columns = [
        "run", "label", "benchmark", "seed", "peak_temperature_sensor",
        "hotspot_pct", "total_energy_j", "throughput_tps",
    ]
    _print_rows([{k: row[k] for k in columns} for row in result.rows])
    if args.save_json:
        result.save_json(args.save_json)
        print(f"wrote JSON -> {args.save_json}")
    if args.save_csv:
        print(f"wrote CSV  -> {args.save_csv}")
    return 0


def _resolve_spec(args: argparse.Namespace):
    """--spec: a built-in declaration name or a JSON/YAML spec file.

    Any declaration problem (missing file, malformed JSON/YAML, unknown
    field, bad value) becomes a clear ``SystemExit`` message — never a
    traceback.
    """
    import json

    from repro.sweep import SweepSpec

    raw = args.spec
    try:
        if raw in BUILTIN_SPECS:
            kwargs = {}
            if args.duration is not None:
                kwargs["duration"] = args.duration
            if args.seed is not None:
                kwargs["seed"] = args.seed
            return BUILTIN_SPECS[raw](**kwargs)
        path = Path(raw)
        if not path.exists():
            raise SystemExit(
                f"error: spec {raw!r} is neither a built-in name "
                f"({', '.join(BUILTIN_SPECS)}) nor an existing file"
            )
        if args.duration is not None or args.seed is not None:
            raise SystemExit(
                "error: --duration/--seed apply to built-in specs only; "
                "set them inside the spec file's 'base' section"
            )
        return SweepSpec.from_file(path)
    except ConfigurationError as exc:
        raise SystemExit(f"error: bad sweep spec {raw!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"error: spec file {raw!r} is not valid JSON: {exc}"
        ) from None
    except OSError as exc:
        raise SystemExit(f"error: cannot read spec {raw!r}: {exc}") from None


def _solver_override(spec, solver: Optional[str]):
    """Rebuild a spec with its base config's solver tier replaced.

    Declared solver axes/points still win over the base (normal
    override semantics). The rebuilt spec fingerprints differently, so
    exact and krylov campaigns keep separate checkpoints/ledgers by
    construction.
    """
    if solver is None:
        return spec
    from dataclasses import replace

    from repro.sweep import SweepSpec

    return SweepSpec(
        base=replace(spec.base, solver=solver),
        grid=spec.grid,
        zip_axes=spec.zip_axes,
        points=spec.points,
        reseed=spec.reseed,
        name=spec.name,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import SweepRunner, read_status

    if args.sweep_command == "status":
        try:
            status = read_status(_existing_file(args.checkpoint, "checkpoint"))
        except ConfigurationError as exc:
            raise SystemExit(f"error: {exc}") from None
        print(f"sweep:      {status.name or '(unnamed)'}")
        print(f"fingerprint {status.fingerprint[:16]}...")
        print(f"progress:   {status.folded}/{status.n_runs} runs "
              f"({status.pct:.1f}%), {status.remaining} remaining")
        print(f"sim time:   {status.elapsed_s:.1f}s across folded runs")
        if status.last_key:
            print(f"last run:   {status.last_key}")
        return 0

    resume = args.sweep_command == "resume" or args.resume
    if args.sweep_command == "resume":
        if not args.checkpoint:
            raise SystemExit("error: sweep resume needs --checkpoint")
        # A typo'd path must not silently restart an hours-long sweep
        # from scratch (`run --resume` stays permissive by contract:
        # "continue from --checkpoint if it already exists").
        _existing_file(args.checkpoint, "checkpoint")
    spec = _solver_override(_resolve_spec(args), args.solver)
    _checked_output(args.save_json, "JSON output")
    _checked_output(args.save_csv, "CSV output")
    _checked_output(args.checkpoint, "checkpoint")
    _trace_enable(args.trace)
    if args.stop_after is not None and args.stop_after < 1:
        raise SystemExit("--stop-after must be >= 1")

    reporter = ProgressReporter(
        spec.run_count, label=spec.name or "sweep", quiet=args.quiet
    )

    def _progress(folded: int, total: int, point, elapsed: float) -> None:
        reporter.update(folded, detail=f"{point.key} ({elapsed:.1f}s)")

    print(spec.describe())
    runner = SweepRunner(
        spec,
        max_workers=_validated_workers(args),
        checkpoint=args.checkpoint,
        csv_path=args.save_csv,
        progress=None if args.quiet else _progress,
        stop_after=args.stop_after,
    )
    try:
        result = runner.run(resume=resume)
    except ConfigurationError as exc:
        raise SystemExit(f"error: {exc}") from None
    reporter.finish(result.folded)

    executed = result.folded - result.resumed
    print(
        f"sweep: {result.folded}/{result.n_runs} folded "
        f"({result.resumed} restored from checkpoint, {executed} run now) "
        f"in {result.wall_time:.2f}s"
    )
    for kind, rows in result.aggregate_rows().items():
        if rows:
            print(f"\n-- {kind} aggregates --")
            _print_rows(rows)
    if args.save_csv:
        print(f"\nwrote CSV  -> {args.save_csv}")
    if result.complete:
        if args.save_json:
            result.save_json(args.save_json)
            print(f"wrote JSON -> {args.save_json}")
    else:
        left = result.n_runs - result.folded
        if args.checkpoint:
            # Echo every flag that shapes the spec fingerprint or the
            # outputs, so the printed command works verbatim.
            hint = ["repro", "sweep", "resume", "--spec", str(args.spec)]
            if args.duration is not None:
                hint += ["--duration", str(args.duration)]
            if args.seed is not None:
                hint += ["--seed", str(args.seed)]
            if args.solver is not None:
                hint += ["--solver", args.solver]
            hint += ["--checkpoint", str(args.checkpoint)]
            if args.workers != 1:
                hint += ["--workers", str(args.workers)]
            if args.save_csv:
                hint += ["--save-csv", str(args.save_csv)]
            if args.save_json:
                hint += ["--save-json", str(args.save_json)]
            print(
                f"sweep incomplete ({left} runs left); continue with: "
                + shlex.join(hint)
            )
        else:
            print(
                f"sweep incomplete ({left} runs left) and no --checkpoint "
                "was given, so this session's progress is NOT saved; "
                "rerun with --checkpoint to make the sweep resumable"
            )
        if args.save_json:
            print("JSON export skipped (written only when the sweep completes)")
    _trace_export(args.trace)
    return 0


def _existing_file(path_str: str, what: str) -> str:
    if not Path(path_str).is_file():
        raise SystemExit(f"error: {what} {path_str!r} does not exist")
    return path_str


def _cmd_dist(args: argparse.Namespace) -> int:
    from repro.dist import (
        campaign_status,
        merge_campaign,
        plan_campaign,
        run_worker,
    )

    if args.dist_command == "plan":
        spec = _solver_override(_resolve_spec(args), args.solver)
        if args.chunk_size < 1:
            raise SystemExit("--chunk-size must be >= 1")
        try:
            plan = plan_campaign(spec, args.dir, chunk_size=args.chunk_size)
        except ConfigurationError as exc:
            raise SystemExit(f"error: {exc}") from None
        print(plan.describe())
        print(f"fingerprint {plan.fingerprint[:16]}...")
        print(
            "start workers with: repro dist work --dir "
            f"{args.dir}  (any number, any host sharing the directory)"
        )
        return 0

    if args.dist_command == "work":
        _trace_enable(args.trace)
        reporter = ProgressReporter(0, label="dist", quiet=args.quiet)
        runs_seen = 0

        def _progress(point, shard_index, elapsed: float) -> None:
            nonlocal runs_seen
            runs_seen += 1
            reporter.update(
                runs_seen,
                detail=f"shard {shard_index}: {point.key} ({elapsed:.1f}s)",
            )

        try:
            report = run_worker(
                args.dir,
                worker_id=args.worker_id,
                max_workers=_validated_workers(args),
                lease_ttl=args.lease_ttl,
                max_shards=args.max_shards,
                poll_interval=args.poll_interval,
                wait=not args.no_wait,
                progress=None if args.quiet else _progress,
            )
        except ConfigurationError as exc:
            raise SystemExit(f"error: {exc}") from None
        reporter.finish(runs_seen, detail=f"{report.wall_time:.1f}s")
        reclaimed = (
            f", reclaimed {len(report.shards_reclaimed)} stale lease(s)"
            if report.shards_reclaimed
            else ""
        )
        print(
            f"worker {report.worker_id}: executed "
            f"{len(report.shards_executed)} shard(s) / "
            f"{report.runs_executed} run(s) in {report.wall_time:.2f}s"
            + reclaimed
        )
        _trace_export(args.trace)
        return 0

    if args.dist_command == "merge":
        _checked_output(args.save_json, "JSON output")
        _checked_output(args.save_csv, "CSV output")
        try:
            merged = merge_campaign(args.dir, allow_partial=args.partial)
        except ConfigurationError as exc:
            raise SystemExit(f"error: {exc}") from None
        notes = []
        if merged.shards_missing:
            notes.append(f"{len(merged.shards_missing)} shard(s) not finished")
        if merged.shards_skipped:
            notes.append(
                f"{len(merged.shards_skipped)} finished shard(s) beyond the "
                "first gap not merged"
            )
        print(
            f"merge: {merged.folded}/{merged.n_runs} runs from "
            f"{merged.shards_merged} shard(s)"
            + (f" ({'; '.join(notes)})" if notes else "")
        )
        for kind, rows in merged.aggregate_rows().items():
            if rows and kind in ("scalar", "quantile"):
                print(f"\n-- {kind} aggregates --")
                _print_rows(rows)
        if merged.telemetry is not None:
            print("\n-- campaign telemetry --")
            _print_metrics_report(merged.telemetry)
        if args.save_csv:
            merged.save_csv(args.save_csv)
            print(f"wrote CSV  -> {args.save_csv}")
        if args.save_json:
            if merged.complete:
                merged.save_json(args.save_json)
                print(f"wrote JSON -> {args.save_json}")
            else:
                print(
                    "JSON export skipped (written only when every shard "
                    "has merged)"
                )
        return 0

    if args.dist_command == "status":
        try:
            status = campaign_status(args.dir)
        except ConfigurationError as exc:
            raise SystemExit(f"error: {exc}") from None
        print(f"campaign:   {status.name or '(unnamed)'}")
        print(f"fingerprint {status.fingerprint[:16]}...")
        print(
            f"shards:     {status.count('done')}/{status.n_shards} done, "
            f"{status.count('running')} running, "
            f"{status.count('stale')} stale, "
            f"{status.count('pending')} pending"
        )
        print(f"runs:       {status.runs_done}/{status.n_runs} journaled-complete")
        for state in status.shards:
            holder = f" ({state.worker})" if state.worker else ""
            heartbeat = ""
            if state.heartbeat_age_s is not None:
                heartbeat = f", heartbeat {state.heartbeat_age_s:.0f}s ago"
            print(
                f"  shard {state.shard.index} "
                f"[{state.shard.start},{state.shard.stop}): "
                f"{state.state}{holder}, {state.runs_journaled} journaled, "
                f"{state.elapsed_s:.1f}s run time{heartbeat}"
            )
        if status.count("stale"):
            print(
                "stale leases are reclaimed automatically by the next "
                "'repro dist work' scan"
            )
        return 0
    raise AssertionError(f"unhandled dist command {args.dist_command!r}")


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.telemetry import validate_trace

    report = validate_trace(_existing_file(args.path, "trace file"))
    if args.telemetry_command == "validate":
        if report.ok:
            print(f"ok: {args.path} ({report.n_spans} spans)")
            return 0
        print(f"invalid: {args.path}")
        for error in report.errors:
            print(f"  {error}")
        return 1

    # summary
    print(f"trace: {args.path} ({report.n_spans} spans)")
    if report.errors:
        print(f"  ({len(report.errors)} schema violation(s); "
              "see 'repro telemetry validate')")
    if report.span_totals:
        print("\n-- span totals --")
        width = max(len(name) for name in report.span_totals)
        ordered = sorted(
            report.span_totals.items(),
            key=lambda item: item[1]["total_s"],
            reverse=True,
        )
        for name, agg in ordered:
            print(
                f"  {name:<{width}} count {agg['count']:>6} "
                f"total {agg['total_s']:.3f}s"
            )
    if report.metrics is not None:
        print("\n-- metrics snapshot --")
        _print_metrics_report(report.metrics)
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    roles = {
        "policies": policy_registry(),
        "controllers": controller_registry(),
        "forecasters": forecaster_registry(),
        "workloads": workload_registry(),
        "facilities": facility_registry(),
    }
    chosen = roles if args.what == "all" else {args.what: roles[args.what]}
    first = True
    for role, registry in chosen.items():
        if not first:
            print()
        first = False
        print(f"-- {role} --")
        for entry in registry.entries():
            aliases = (
                f" (aliases: {', '.join(entry.aliases)})" if entry.aliases else ""
            )
            traits = ""
            if len(entry.traits):
                rendered = ", ".join(
                    f"{k}={v}" for k, v in entry.traits.items()
                )
                traits = f" [{rendered}]"
            print(f"{entry.key}{aliases}{traits}")
            if entry.description:
                print(f"    {entry.description}")
            for param in entry.params:
                default = "" if param.default is None else f" = {param.default}"
                bounds = ""
                if param.minimum is not None or param.maximum is not None:
                    lo = "-inf" if param.minimum is None else f"{param.minimum:g}"
                    hi = "+inf" if param.maximum is None else f"{param.maximum:g}"
                    bounds = f" in [{lo}, {hi}]"
                doc = f" — {param.doc}" if param.doc else ""
                print(f"    {param.name}: {param.kind}{default}{bounds}{doc}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.sim.calibration import calibrate_air_scale, calibrate_liquid_scale

    if args.path == "liquid":
        scale = calibrate_liquid_scale()
        print(f"liquid resistance_scale = {scale:.3f}")
    else:
        scale = calibrate_air_scale()
        print(f"air_resistance_scale = {scale:.3f}")
    return 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    print("-- controller variants --")
    _print_rows(ablations.run_controller_ablation(duration=args.duration))
    print("\n-- grid resolution --")
    _print_rows(ablations.run_grid_resolution_ablation())
    print("\n-- TALB weight target --")
    _print_rows(ablations.run_weight_sensitivity(duration=args.duration))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    command = args.command
    if command == "simulate":
        return _cmd_simulate(args)
    if command == "batch":
        return _cmd_batch(args)
    if command == "sweep":
        return _cmd_sweep(args)
    if command == "dist":
        return _cmd_dist(args)
    if command == "telemetry":
        return _cmd_telemetry(args)
    if command == "fig3":
        _print_rows(fig3.run())
        return 0
    if command == "fig5":
        _print_rows(
            fig5.run(n_layers=args.layers, include_continuous=args.continuous)
        )
        return 0
    if command in FIGURES:
        figure_rows = run_figures(
            [command], duration=args.duration, seed=args.seed,
            workers=_validated_workers(args),
        )
        _print_rows(figure_rows[command])
        return 0
    if command == "table2":
        _print_rows(table2.run(duration=max(args.duration, 60.0), seed=args.seed))
        return 0
    if command == "ablations":
        return _cmd_ablations(args)
    if command == "calibrate":
        return _cmd_calibrate(args)
    if command == "list":
        return _cmd_list(args)
    if command == "workloads":
        rows = [
            {
                "benchmark": spec.name,
                "util_pct": spec.avg_utilization,
                "l2_miss_per_100k": spec.total_l2_miss,
                "memory_intensity": spec.memory_intensity,
            }
            for spec in TABLE_II.values()
        ]
        _print_rows(rows)
        return 0
    raise AssertionError(f"unhandled command {command!r}")


if __name__ == "__main__":
    sys.exit(main())
