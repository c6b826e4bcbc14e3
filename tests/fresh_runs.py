"""Reference runs that share nothing.

Batch, sweep and distributed execution share each thermal system's
assembled networks and LUs across runs, and the steady initial fields
warm-up caches. The byte-identity tests compare them against this
reference: every run an independent :func:`repro.sim.engine.simulate`
call after :func:`repro.sim.cache.clear_system_memo`, on a cache that
shares the flow tables, burst floors and weight sets but holds no
initial field, so each run assembles, factorizes and solves its own.
"""

from __future__ import annotations

import contextlib
import time

import pytest

from repro.runner import batch
from repro.sim.cache import clear_system_memo
from repro.sim.engine import default_cache, simulate


def fresh_simulate(config):
    """One run on a freshly built system that solves its own initial
    field (nothing memoized)."""
    clear_system_memo()
    return simulate(config, cache=default_cache().without_fields())


def _fresh_execute_one(index, config):
    start = time.perf_counter()
    result = fresh_simulate(config)
    return batch.BatchRun(
        index=index,
        config=config,
        result=result,
        elapsed=time.perf_counter() - start,
    )


@contextlib.contextmanager
def fresh_runs():
    """Within the block, serial :class:`repro.runner.BatchRunner`
    execution — and so a serial ``SweepRunner`` or dist worker — runs
    every config through :func:`fresh_simulate`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch, "_execute_one", _fresh_execute_one)
        yield
