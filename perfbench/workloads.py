"""The three campaigns the benchmark times, built from public configuration.

Every workload is a :class:`repro.SweepSpec` over a
:class:`repro.SimulationConfig`, executed by :class:`repro.SweepRunner`
at its defaults (serial, default aggregators). The base seed of each
workload's ``seed`` axis comes from the command line; the program only
ever sees the generated configs.

Sizes were scaled from the paper-scale campaigns so that one sample (a
fresh interpreter) takes about ten seconds on one core while the same
layer dominates: assembly, LU factorization and characterization in
``cold-inlet-sweep``; the per-interval loop in ``warm-policy-campaign``;
GMRES in ``krylov-design-sweep``.
"""

from __future__ import annotations

from pathlib import Path

WORKLOADS = ("cold-inlet-sweep", "warm-policy-campaign", "krylov-design-sweep")

INLETS = (45.0, 55.0, 65.0, 75.0)
RESISTANCE_SCALES = tuple(round(4.0 + 0.06 * i, 2) for i in range(16))
POLICIES = ("TALB", "LB", "Mig", "RR")
FACILITIES = ("none", "closed-loop")

WARM_REPS = 3
"""Timed repetitions per warm process. Repetition ``r`` runs seed
``base + 1 + r``; the untimed fill pass runs ``base``. References must
therefore cover seeds up to ``instances + WARM_REPS - 1``."""

SIZES = {
    # Grid edge (cells) and simulated seconds per run.
    "full": {
        "cold-inlet-sweep": (48, 10.0),
        "warm-policy-campaign": (32, 15.0),
        "krylov-design-sweep": (48, 1.0),
    },
    # The self-test's toy size: same campaigns, seconds instead of minutes.
    "toy": {
        "cold-inlet-sweep": (16, 1.0),
        "warm-policy-campaign": (16, 1.0),
        "krylov-design-sweep": (16, 1.0),
    },
}

SAMPLE_SECONDS = {
    "cold-inlet-sweep": 10.0,
    "warm-policy-campaign": 13.0,
    "krylov-design-sweep": 10.0,
}
"""Nominal length of one full-size sample on a 2-vCPU Xeon at one
thread. ``--seconds`` is turned into a fixed sample count with it, so
every run of a workload measures the same work however fast the machine
happens to be at the moment."""

CHECKED_FIELDS = (
    "peak_temperature_sensor",
    "peak_temperature_cell",
    "pump_energy_j",
    "chip_energy_j",
    "pue",
)
TEMPERATURE_FIELDS = ("peak_temperature_sensor", "peak_temperature_cell")
TEMPERATURE_TOLERANCE_K = 1.0e-6
"""Absolute agreement on temperatures, the program's documented
krylov-vs-exact contract (``KRYLOV_TEMPERATURE_TOLERANCE``)."""
ENERGY_RTOL = 1.0e-6
"""Relative agreement on energies and PUE."""


def is_cold(workload: str) -> bool:
    """Cold workloads pay set-up and campaign once per fresh interpreter;
    the warm one repeats its campaign in-process after a fill pass."""
    return workload != "warm-policy-campaign"


def runs_per_sample(workload: str) -> int:
    """Simulation runs one sample attempts (fill pass included)."""
    if workload == "cold-inlet-sweep":
        return len(INLETS)
    if workload == "krylov-design-sweep":
        return len(RESISTANCE_SCALES)
    return len(POLICIES) * len(FACILITIES) * (1 + WARM_REPS)


def row_matches(row: dict, reference: dict) -> bool:
    """Whether a run's checked fields agree with its reference row."""
    for name in CHECKED_FIELDS:
        got, want = row.get(name), reference.get(name)
        if got is None or want is None:
            if got is not want:
                return False
            continue
        if name in TEMPERATURE_FIELDS:
            ok = abs(got - want) <= TEMPERATURE_TOLERANCE_K
        else:
            ok = abs(got - want) <= ENERGY_RTOL * abs(want)
        if not ok:  # also catches NaN
            return False
    return True


def campaign_spec(workload: str, size: str, seeds, solver: str | None = None):
    """The sweep one campaign of ``workload`` runs over ``seeds``.

    ``solver`` overrides the krylov workload's tier (the references are
    computed with ``"exact"``).
    """
    from repro import CoolingMode, SimulationConfig, SweepSpec

    grid_edge, duration = SIZES[size][workload]
    common = dict(
        benchmark_name="Web-med",
        nx=grid_edge,
        ny=grid_edge,
        duration=duration,
    )
    if workload == "cold-inlet-sweep":
        base = SimulationConfig(
            policy="TALB", cooling=CoolingMode.LIQUID_VARIABLE, **common
        )
        grid = {"thermal_params.inlet_temperature": list(INLETS)}
    elif workload == "warm-policy-campaign":
        base = SimulationConfig(cooling=CoolingMode.LIQUID_VARIABLE, **common)
        grid = {"policy": list(POLICIES), "facility": list(FACILITIES)}
    elif workload == "krylov-design-sweep":
        base = SimulationConfig(
            policy="TALB",
            cooling=CoolingMode.LIQUID_MAX,
            solver=solver or "krylov",
            **common,
        )
        grid = {"thermal_params.resistance_scale": list(RESISTANCE_SCALES)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    grid["seed"] = [int(s) for s in seeds]
    return SweepSpec(base=base, grid=grid, name=workload)


def runner_options(workload: str, scratch: Path) -> dict:
    """Keyword arguments for :class:`repro.SweepRunner` beyond its defaults:
    the krylov campaign journals a checkpoint and streams a CSV export,
    so it is the workload that exercises the write path."""
    if workload != "krylov-design-sweep":
        return {}
    return {
        "checkpoint": scratch / "checkpoint.jsonl",
        "csv_path": scratch / "export.csv",
    }


def row_key(point_key: str) -> str:
    """Reference key of a run: its point key without the run index, e.g.
    ``seed=3,thermal_params.inlet_temperature=45.0``."""
    _, _, overrides = point_key.partition(" ")
    return overrides


def checked_row(row: dict) -> dict:
    """The fields of an export row the benchmark checks."""
    return {name: row.get(name) for name in CHECKED_FIELDS}
