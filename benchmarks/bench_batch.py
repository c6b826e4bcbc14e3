"""Batch runner scaling — serial vs. 4-worker wall-clock on a 6-config sweep.

Times the same six-run sweep twice through
:class:`repro.runner.BatchRunner`: serially in-process and fanned out
over four worker processes, with the characterization cache pre-warmed
once and shared by both timings so the comparison isolates the run
loop. Always asserts bit-identical results; the >= 2.5x wall-clock
speedup floor is asserted only on machines with >= 4 cores and
*skipped* (not failed) below that — four workers on 1-3 logical CPUs
are core-bound, and on SMT siblings of one physical core the observed
whole-batch "speedup" physically caps near 1x, so any floor there
would test the machine, not the code.
"""

import os
import time

import numpy as np
import pytest
from conftest import SWEEP_DURATION

from repro.experiments import common
from repro.runner import BatchRunner
from repro.sim.cache import CharacterizationCache
from repro.sim.config import CoolingMode, PolicyKind, SimulationConfig

#: Long enough per run that process startup/transport is amortized.
BATCH_DURATION = 2.0 * SWEEP_DURATION

#: The 6-config sweep: three Table II workloads x the paper's headline
#: comparison pair (variable flow vs. worst-case flow), one shared
#: 2-layer system so the warmed cache covers every run.
SWEEP: tuple[tuple[str, PolicyKind, CoolingMode], ...] = (
    ("gzip", PolicyKind.TALB, CoolingMode.LIQUID_VARIABLE),
    ("gzip", PolicyKind.TALB, CoolingMode.LIQUID_MAX),
    ("Web-med", PolicyKind.TALB, CoolingMode.LIQUID_VARIABLE),
    ("Web-med", PolicyKind.TALB, CoolingMode.LIQUID_MAX),
    ("Database", PolicyKind.TALB, CoolingMode.LIQUID_VARIABLE),
    ("Database", PolicyKind.TALB, CoolingMode.LIQUID_MAX),
)


def _sweep_configs() -> list[SimulationConfig]:
    return [
        SimulationConfig(
            benchmark_name=workload,
            policy=policy,
            cooling=cooling,
            duration=BATCH_DURATION,
        )
        for workload, policy, cooling in SWEEP
    ]


#: Cores needed for the 4-worker speedup floor to be hardware-feasible.
SPEEDUP_MIN_CORES = 4

#: The acceptance bar on machines with >= SPEEDUP_MIN_CORES cores.
SPEEDUP_FLOOR = 2.5


def _timed_runs(configs, cache, workers):
    """All runs of one batch plus their wall-clock seconds."""
    start = time.perf_counter()
    runs = list(BatchRunner(configs, max_workers=workers, cache=cache).iter_runs())
    return runs, time.perf_counter() - start


def test_batch_parallel_speedup(benchmark):
    configs = _sweep_configs()
    # Warmed up front, so both timings isolate the run loop (the
    # runner's own warm pass is then all hits).
    cache = CharacterizationCache().warm(configs)

    serial, serial_s = _timed_runs(configs, cache, 1)
    parallel, parallel_s = benchmark.pedantic(
        lambda: _timed_runs(configs, cache, 4),
        rounds=1,
        iterations=1,
    )

    speedup = serial_s / parallel_s
    # Cores this process may actually use: containers and CI runners
    # often restrict CPU affinity below os.cpu_count()'s host total.
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # Non-Linux platforms.
        cpus = os.cpu_count() or 1
    rows = [
        {"mode": "serial", "workers": 1, "wall_s": serial_s, "runs": len(serial)},
        {"mode": "parallel", "workers": 4, "wall_s": parallel_s, "runs": len(parallel)},
    ]
    print("\n" + common.format_rows(rows))
    print(f"speedup: {speedup:.2f}x on {cpus} cores "
          f"(floor {SPEEDUP_FLOOR:.2f}x asserted on >= {SPEEDUP_MIN_CORES})")

    # Fan-out must not change a single sample (asserted on any machine).
    for run_s, run_p in zip(serial, parallel):
        assert run_s.config == run_p.config
        assert np.array_equal(run_s.result.tmax, run_p.result.tmax)
        assert np.array_equal(
            run_s.result.completed_threads, run_p.result.completed_threads
        )
        assert run_s.result.sojourn_sum == run_p.result.sojourn_sum

    if cpus < SPEEDUP_MIN_CORES:
        pytest.skip(
            f"speedup floor needs >= {SPEEDUP_MIN_CORES} cores, "
            f"machine has {cpus} (measured {speedup:.2f}x; "
            "bit-identity was still asserted)"
        )
    assert speedup >= SPEEDUP_FLOOR
