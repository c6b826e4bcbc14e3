"""The warm-campaign gate: a rerun campaign factorizes nothing.

Four runs (two policies, two seeds) on one characterization cache: the
first pass may factorize, the second must reuse every LU, read through
the ``solver.factorizations`` telemetry counter as a delta.
"""

from repro.runner import BatchRunner
from repro.sim.cache import CharacterizationCache
from repro.sim.config import SimulationConfig
from repro.telemetry import metrics


def test_warm_campaign_refactorizes_nothing():
    configs = [
        SimulationConfig(policy=p, seed=s, duration=0.5)
        for p in ("TALB", "LB") for s in (0, 1)
    ]
    cache = CharacterizationCache()
    list(BatchRunner(configs, cache=cache).iter_runs())  # cold: factorizes
    before = metrics.counter("solver.factorizations").value()
    list(BatchRunner(configs, cache=cache).iter_runs())  # warm: must not
    delta = metrics.counter("solver.factorizations").value() - before
    assert delta == 0, f"warm campaign refactorized {delta} times"
