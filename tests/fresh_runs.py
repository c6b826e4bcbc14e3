"""Reference runs that share nothing.

Batch, sweep and distributed execution share each thermal system's
assembled networks, LUs and memoized steady initial field across runs.
The byte-identity tests compare them against this reference: every run
an independent :func:`repro.sim.engine.simulate` call after
:func:`repro.sim.cache.clear_system_memo`, so each run assembles,
factorizes and solves its own initial field.
"""

from __future__ import annotations

import contextlib
import time

import pytest

from repro.runner import batch
from repro.sim.cache import clear_system_memo
from repro.sim.engine import simulate


def fresh_simulate(config):
    """One run on a freshly built system (nothing memoized)."""
    clear_system_memo()
    return simulate(config)


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
