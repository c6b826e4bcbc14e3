"""Benchmark-suite configuration.

Every figure/table benchmark prints the regenerated rows (run with
``-s`` to see them) and asserts the paper's qualitative claims, so
``pytest benchmarks/ --benchmark-only`` is the full evaluation harness.

Each figure benchmark times its own sweep: nothing is memoized across
figures, so the Figure 8 and headline benchmarks simulate their runs
even after the Figure 6 benchmark in the same pytest run. (They used to
time a hit in a process-global result memo there, about 0.01 s.)
"""

#: Simulated seconds per (policy, workload) point in the figure sweeps.
#: Long enough for stationary statistics, short enough that the whole
#: suite regenerates in a few minutes.
SWEEP_DURATION = 10.0
