"""Thread construction, validation and execution accounting.

The engine executes a queue head inline at the scheduler quantum; the
execution tests run one interval of a simulation on a hand-made trace
and read the thread's ``remaining`` time afterwards.
"""

import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.sim.config import CoolingMode, PolicyKind, SimulationConfig
from repro.sim.engine import Simulator
from repro.workload.benchmarks import benchmark
from repro.workload.generator import ThreadTrace
from repro.workload.threads import DONE_TOLERANCE, Thread


def _simulator(thread):
    """A one-interval run (ten 10 ms quanta) with ``thread`` as the
    only arrival."""
    config = SimulationConfig(
        benchmark_name="gzip",
        policy=PolicyKind.LB,
        cooling=CoolingMode.AIR,
        duration=0.1,
    )
    trace = ThreadTrace(
        threads=(thread,), duration=config.duration, spec=benchmark("gzip"), n_cores=8
    )
    return Simulator(config, trace=trace)


class TestThread:
    def test_execute_consumes_remaining(self):
        """A thread longer than the interval runs every quantum of it
        and still owes the rest."""
        t = Thread(0, arrival=0.0, length=0.25)
        state = _simulator(t).step()
        assert t.remaining == pytest.approx(0.15)
        assert state.completed_threads == 0

    def test_execute_caps_at_remaining(self):
        """A thread shorter than a quantum uses only what it owes and
        completes with a sojourn equal to its length."""
        t = Thread(0, arrival=0.0, length=0.005)
        sim = _simulator(t)
        assert sim.step().completed_threads == 1
        assert t.remaining == 0.0
        assert sim.result().mean_sojourn_time() == pytest.approx(0.005)

    def test_done_tolerance(self):
        """Seven 10 ms quanta leave 0.07 s owing a rounding residue of
        order 1e-17 s; the thread is still done."""
        t = Thread(0, arrival=0.0, length=0.07)
        state = _simulator(t).step()
        assert 0.0 < t.remaining <= DONE_TOLERANCE
        assert state.completed_threads == 1

    @pytest.mark.parametrize("quantum", [0.0, -0.01])
    def test_rejects_negative_quantum(self, quantum):
        """The engine executes at the config's quantum; a quantum that
        is not positive is rejected before any thread runs."""
        with pytest.raises(ConfigurationError, match="quantum"):
            SimulationConfig(quantum=quantum)

    def test_rejects_bad_length(self):
        with pytest.raises(WorkloadError):
            Thread(0, arrival=0.0, length=0.0)

    def test_rejects_negative_arrival(self):
        with pytest.raises(WorkloadError):
            Thread(0, arrival=-1.0, length=0.01)

    def test_remaining_defaults_to_length(self):
        t = Thread(0, arrival=1.0, length=0.25)
        assert t.remaining == pytest.approx(0.25)

    def test_migrations_counter(self):
        t = Thread(0, arrival=0.0, length=0.1)
        assert t.migrations == 0
