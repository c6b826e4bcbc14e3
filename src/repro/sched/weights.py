"""Thermal weight factors for the weighted load balancer (Eq. 8).

The paper: "consider a 4-core system, where the average power values
for the cores to achieve a balanced 75 degC are p1..p4 ... we take the
multiplicative inverse of the power values, normalize them, and use
them as thermal weight factors", with "the weight factors for all the
cores ... computed in a pre-processing step and stored in the look-up
table", as a function of the current maximum temperature range.

We compute the balanced power vector directly from the thermal model:
with the reduced core-to-core thermal resistance matrix A (A[i][j] =
temperature rise of core i per watt on core j) and baseline offsets t0
(temperatures at zero power), the powers achieving a uniform target
temperature solve ``A p = T_target - t0``. Cores with small balanced
power (poorly cooled locations — e.g. tiers far from a cavity, cells
above other hot units) get large weights and therefore fewer threads.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import SchedulingError
from repro.thermal.rc_network import RCNetwork
from repro.thermal.solver import SteadyStateSolver


class ThermalWeights:
    """Pre-processed per-core thermal weights for one cooling condition.

    Parameters
    ----------
    weights:
        Mapping core name -> weight, normalized to mean 1. A weight
        above 1 marks a thermally disadvantaged core.
    """

    def __init__(self, weights: Mapping[str, float]) -> None:
        if not weights:
            raise SchedulingError("weights cannot be empty")
        if any(w <= 0.0 for w in weights.values()):
            raise SchedulingError("weights must be positive")
        mean = sum(weights.values()) / len(weights)
        self._weights = {name: w / mean for name, w in weights.items()}

    def __getitem__(self, core: str) -> float:
        try:
            return self._weights[core]
        except KeyError:
            raise SchedulingError(f"no weight for core {core!r}")

    def as_dict(self) -> dict[str, float]:
        """All weights (normalized to mean 1)."""
        return dict(self._weights)

    @classmethod
    def from_network(
        cls,
        network: RCNetwork,
        target_temperature: float = 75.0,
        background_power: float = 0.0,
    ) -> "ThermalWeights":
        """Derive weights from a thermal network (pre-processing step).

        Parameters
        ----------
        network:
            The assembled RC network for the cooling condition (one per
            pump setting, or the air network).
        target_temperature:
            The balanced temperature the power vector should achieve
            (paper's example: 75 degC).
        background_power:
            Power (W) placed uniformly on every non-core unit while
            probing, so crossbar/L2 heating is reflected in the offsets.
        """
        grid = network.grid
        core_keys = list(grid.core_keys)
        if not core_keys:
            raise SchedulingError("stack has no cores")

        # The LU store hands back the factorization of any live solver
        # of the same matrix (e.g. the flow-table characterization's),
        # so deriving weights adds only triangular solves.
        solver = SteadyStateSolver(network)
        base_units = np.zeros(grid.n_units)
        if background_power > 0.0:
            non_core = np.setdiff1d(
                np.arange(grid.n_units), grid.core_index, assume_unique=False
            )
            base_units[non_core] = background_power
        t_base = solver.solve(grid.power_vector_from_array(base_units))
        t0 = grid.unit_temperature_vector(t_base)[grid.core_index]

        # One multi-RHS solve covers every per-core probe injection.
        n = len(core_keys)
        probe_watts = 1.0
        probes = np.empty((grid.n_nodes, n))
        for j, core_position in enumerate(grid.core_index):
            probe = base_units.copy()
            probe[core_position] += probe_watts
            probes[:, j] = grid.power_vector_from_array(probe)
        temps = solver.solve_many(probes)
        core_responses = np.column_stack(
            [
                grid.unit_temperature_vector(temps[:, j])[grid.core_index]
                for j in range(n)
            ]
        )
        a = (core_responses - t0[:, None]) / probe_watts

        rhs = target_temperature - t0
        if np.any(rhs <= 0.0):
            # Target below the zero-power baseline: fall back to the
            # diagonal (self-heating) ranking, which is always positive.
            balanced = 1.0 / np.diag(a)
        else:
            balanced = np.linalg.solve(a, rhs)
            if np.any(balanced <= 0.0):
                # Strong coupling can push the exact solution negative;
                # clamp to the per-core budget ignoring cross terms.
                balanced = rhs / np.diag(a)
        weights = {
            name: 1.0 / p for (_, name), p in zip(core_keys, balanced)
        }
        return cls(weights)
