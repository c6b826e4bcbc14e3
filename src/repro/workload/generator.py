"""Synthetic thread-arrival generator matched to Table II statistics.

The paper drove its simulations with half-hour mpstat/DTrace traces of
real workloads. Those traces are not published, so we synthesize
equivalent ones from the statistics the paper does give:

* thread lengths are log-normally distributed between "a few" and
  "several hundred" milliseconds (the DTrace observation), with a
  100 ms median;
* arrivals form a doubly stochastic (modulated) Poisson process whose
  rate is an AR(1) series around the Table II average utilization, so
  traces show the serial correlation that makes ARMA forecasting
  effective (Section IV) while still exercising rate changes;
* the offered load is calibrated so the long-run system utilization
  matches the Table II "Avg Util" column.

A generator is deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.workload.benchmarks import BenchmarkSpec
from repro.workload.threads import Thread

#: Median thread length, s ("a few to several hundred milliseconds").
_MEDIAN_LENGTH = 0.1

#: Log-normal sigma: ~[15 ms, 650 ms] central 95 % range.
_LENGTH_SIGMA = 0.95

#: Lower/upper clamps on individual thread lengths, s.
_MIN_LENGTH = 0.003
_MAX_LENGTH = 0.8


@dataclass(frozen=True)
class ThreadTrace:
    """An immutable, time-sorted list of generated threads."""

    threads: tuple[Thread, ...]
    duration: float
    spec: BenchmarkSpec
    n_cores: int

    def offered_utilization(self) -> float:
        """Total requested CPU time divided by total capacity."""
        demand = sum(t.length for t in self.threads)
        return demand / (self.duration * self.n_cores)

    def pristine(self) -> "ThreadTrace":
        """A copy with every thread reset to its unexecuted state.

        The trace container is immutable but the scheduler mutates the
        :class:`~repro.workload.threads.Thread` objects themselves
        (``remaining``, ``migrations``), so a trace that is cached or
        otherwise shared across runs must hand each simulation its own
        pristine copy.
        """
        return ThreadTrace(
            threads=tuple(
                Thread(t.thread_id, t.arrival, t.length) for t in self.threads
            ),
            duration=self.duration,
            spec=self.spec,
            n_cores=self.n_cores,
        )


class WorkloadGenerator:
    """Generates :class:`ThreadTrace` objects for a Table II benchmark.

    Parameters
    ----------
    spec:
        The benchmark row to replicate.
    n_cores:
        Number of cores the workload targets (8 for the 2-layer system;
        "the workload statistics ... are replicated for the 4-layered
        16-core system").
    seed:
        Seed for reproducibility.
    rate_correlation:
        AR(1) coefficient of the arrival-rate modulation per second
        (close to 1 = slowly varying load).
    rate_jitter:
        Relative standard deviation of the rate modulation.
    """

    def __init__(
        self,
        spec: BenchmarkSpec,
        n_cores: int = 8,
        seed: int = 0,
        rate_correlation: float = 0.93,
        rate_jitter: float = 0.15,
    ) -> None:
        if n_cores <= 0:
            raise WorkloadError("n_cores must be positive")
        if not 0.0 <= rate_correlation < 1.0:
            raise WorkloadError("rate_correlation must be in [0, 1)")
        if rate_jitter < 0.0:
            raise WorkloadError("rate_jitter must be non-negative")
        self.spec = spec
        self.n_cores = n_cores
        self.seed = seed
        self.rate_correlation = rate_correlation
        self.rate_jitter = rate_jitter

    def mean_thread_length(self) -> float:
        """Expected thread length (s) under the clamped log-normal."""
        # Monte-Carlo-free estimate: the clamp hardly moves the mean, so
        # use the analytic log-normal mean and verify in tests.
        return _MEDIAN_LENGTH * float(np.exp(0.5 * _LENGTH_SIGMA**2))

    def generate(self, duration: float) -> ThreadTrace:
        """Generate a trace covering ``duration`` seconds."""
        if duration <= 0.0:
            raise WorkloadError("duration must be positive")
        rng = np.random.default_rng(self.seed + 1009 * self.spec.index)
        base_rate = self.spec.utilization * self.n_cores / self.mean_thread_length()

        threads: list[Thread] = []
        thread_id = 0
        # Rate modulation updates once per second (mpstat's granularity).
        n_slots = int(np.ceil(duration))
        log_median = np.log(_MEDIAN_LENGTH)
        modulation = 1.0
        for slot in range(n_slots):
            noise = rng.normal(0.0, self.rate_jitter)
            modulation = (
                self.rate_correlation * modulation
                + (1.0 - self.rate_correlation) * (1.0 + noise)
            )
            # min(max(...)) is np.clip on a scalar, NaN included, without
            # an array round trip per slot and thread.
            modulation = min(max(modulation, 0.2), 2.0)
            rate = base_rate * modulation
            t = float(slot)
            end = min(duration, t + 1.0)
            while True:
                t += float(rng.exponential(1.0 / rate)) if rate > 0 else end
                if t >= end:
                    break
                length = min(
                    max(rng.lognormal(log_median, _LENGTH_SIGMA), _MIN_LENGTH),
                    _MAX_LENGTH,
                )
                threads.append(Thread(thread_id, t, length))
                thread_id += 1
        return ThreadTrace(
            threads=tuple(threads),
            duration=duration,
            spec=self.spec,
            n_cores=self.n_cores,
        )
