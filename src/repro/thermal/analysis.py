"""Transient analysis utilities: step responses and time constants.

The paper's controller design hinges on a timing argument: "the thermal
time constant on a 3D system like ours is typically less than 100 ms"
while the pump needs 250-300 ms to change the flow, so a reactive
policy is always late and the controller must forecast. These utilities
measure that time constant from the model, so the claim is checkable
(and stays true if a user changes the stack).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError
from repro.thermal.rc_network import RCNetwork
from repro.thermal.solver import SteadyStateSolver, TransientSolver


@dataclass(frozen=True)
class StepResponse:
    """A recorded power-step response.

    Attributes
    ----------
    times:
        Sample times from the step, s.
    tmax:
        Maximum die temperature at each sample, degC.
    t_initial, t_final:
        The starting and asymptotic maximum temperatures, degC.
    """

    times: np.ndarray
    tmax: np.ndarray
    t_initial: float
    t_final: float

    def settling_fraction(self) -> np.ndarray:
        """Normalized response: 0 at the step, 1 at the new steady state."""
        span = self.t_final - self.t_initial
        if abs(span) < 1.0e-12:
            return np.ones_like(self.tmax)
        return (self.tmax - self.t_initial) / span

    def time_constant(self) -> float:
        """First-order time constant: time to reach 63.2 % of the step.

        Interpolates between samples; returns ``nan`` when the response
        never reaches 63.2 % within the recorded window.
        """
        fraction = self.settling_fraction()
        target = 1.0 - np.exp(-1.0)
        above = np.nonzero(fraction >= target)[0]
        if len(above) == 0:
            return float("nan")
        i = above[0]
        if i == 0:
            return float(self.times[0])
        f0, f1 = fraction[i - 1], fraction[i]
        t0, t1 = self.times[i - 1], self.times[i]
        if f1 == f0:
            return float(t1)
        return float(t0 + (target - f0) * (t1 - t0) / (f1 - f0))


def step_response(
    network: RCNetwork,
    power: np.ndarray,
    dt: float = 0.005,
    max_time: float = 5.0,
) -> StepResponse:
    """Record the maximum-temperature response to a power step.

    Starts from the zero-power steady state, applies ``power`` at t=0,
    and integrates until ``max_time`` with step ``dt`` (default 5 ms,
    fine enough to resolve a <100 ms constant).
    """
    for name, value in (("dt", dt), ("max_time", max_time)):
        if not (math.isfinite(value) and value > 0.0):
            raise SolverError(f"{name} must be finite and positive, got {value}")
    if max_time <= dt:
        raise SolverError("need 0 < dt < max_time")
    grid = network.grid
    steady = SteadyStateSolver(network)
    base = steady.solve(np.zeros(network.n_nodes))
    final = steady.solve(np.asarray(power, dtype=float))
    solver = TransientSolver(network, dt)
    n_steps = int(round(max_time / dt))
    times = np.arange(1, n_steps + 1) * dt
    tmax = np.empty(n_steps)
    state = base
    for k in range(n_steps):
        state = solver.step(state, power)
        tmax[k] = grid.max_die_temperature(state)
    return StepResponse(
        times=times,
        tmax=tmax,
        t_initial=grid.max_die_temperature(base),
        t_final=grid.max_die_temperature(final),
    )
