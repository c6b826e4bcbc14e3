"""Bundles a stack with its thermal networks across pump settings.

The conductance matrix changes only when the pump setting changes, so
the system caches one assembled network (and one transient solver) per
setting — the runtime cost of a flow change is a cached factorization
lookup, matching the paper's observation that the controller overhead
is "negligible".
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.stack import CoolingKind, Stack3D, build_stack
from repro.microchannel.geometry import ChannelGeometry
from repro.microchannel.model import MicrochannelModel
from repro.power.components import PowerModel
from repro.pump.laing_ddc import PumpModel, laing_ddc
from repro.thermal.grid import ThermalGrid
from repro.thermal.package import AirPackage
from repro.thermal.rc_network import RCNetwork, ThermalParams, build_network
from repro.thermal.solver import (
    KrylovSteadySolver,
    KrylovTransientSolver,
    SteadyStateSolver,
    TransientSolver,
    structure_signature,
)


class ThermalSystem:
    """A 3D system ready to simulate: grid + per-setting networks.

    Parameters
    ----------
    n_layers:
        2 or 4 active tiers.
    cooling:
        LIQUID (interlayer channels + pump) or AIR (package).
    nx, ny:
        Grid resolution per slab.
    params:
        Material/calibration parameters.
    pump:
        The pump; defaults to the Laing DDC sized to the stack's
        cavities. Ignored for air cooling.
    package:
        Air package; defaults to :class:`AirPackage`. Ignored for
        liquid cooling.
    solver:
        Thermal linear-solver tier: ``"exact"`` (sparse LU, the
        default) or ``"krylov"`` (neighbor-LU preconditioned GMRES —
        reuses nearby design points' factorizations from the
        process-wide :func:`repro.thermal.solver.neighbor_factor_cache`
        instead of factorizing per system).
    """

    def __init__(
        self,
        n_layers: int = 2,
        cooling: CoolingKind = CoolingKind.LIQUID,
        nx: int = 16,
        ny: int = 16,
        params: ThermalParams = ThermalParams(),
        pump: Optional[PumpModel] = None,
        package: Optional[AirPackage] = None,
        solver: str = "exact",
    ) -> None:
        if solver not in ("exact", "krylov"):
            raise ConfigurationError(
                f"solver must be 'exact' or 'krylov', got {solver!r}"
            )
        self.solver = solver
        self.stack: Stack3D = build_stack(n_layers, cooling)
        #: All core names in the stack, bottom die first (immutable).
        self.core_names: tuple[str, ...] = tuple(self.stack.core_names())
        self.grid = ThermalGrid(self.stack, nx=nx, ny=ny)
        self.params = params
        self.cooling = cooling
        if cooling is CoolingKind.LIQUID:
            self.pump = pump or laing_ddc(self.stack.n_cavities)
            self.package = None
        else:
            self.pump = None
            self.package = package or AirPackage()
        self.channel_model = MicrochannelModel(
            geometry=ChannelGeometry(length=self.stack.width),
            die_height=self.stack.height,
        )
        self._networks: dict[int, RCNetwork] = {}
        self._transients: dict[tuple, TransientSolver] = {}
        self._steadies: dict[int, SteadyStateSolver] = {}
        self._initial_fields: dict[tuple, tuple[PowerModel, np.ndarray]] = {}

    # --- network/solver caches --------------------------------------------------

    def network(self, setting_index: int = -1) -> RCNetwork:
        """The RC network for a pump setting (-1 = air cooling)."""
        if setting_index in self._networks:
            return self._networks[setting_index]
        if self.cooling is CoolingKind.AIR:
            if setting_index != -1:
                raise ConfigurationError("air-cooled systems have no pump settings")
            net = build_network(self.grid, self.params, package=self.package)
        else:
            flow = self.pump.setting(setting_index).per_cavity_flow
            net = build_network(
                self.grid,
                self.params,
                cavity_flows=[flow],
                channel_model=self.channel_model,
            )
        self._networks[setting_index] = net
        return net

    def network_for_flow(self, per_cavity_flow: float) -> RCNetwork:
        """An uncached network at an arbitrary continuous flow.

        Used by the continuous curves of Figure 5 and by ablations; the
        discrete runtime path uses :meth:`network`.
        """
        if self.cooling is CoolingKind.AIR:
            raise ConfigurationError("air-cooled systems have no coolant flow")
        return build_network(
            self.grid,
            self.params,
            cavity_flows=[per_cavity_flow],
            channel_model=self.channel_model,
        )

    def transient_solver(self, setting_index: int, dt: float) -> TransientSolver:
        """Cached backward-Euler solver for a setting and step size."""
        key = (setting_index, dt)
        if key not in self._transients:
            self._transients[key] = self._solver(
                TransientSolver, KrylovTransientSolver, setting_index, ("dt", dt), dt
            )
        return self._transients[key]

    def steady_solver(self, setting_index: int = -1) -> SteadyStateSolver:
        """Cached steady-state solver for a setting (-1 = air)."""
        if setting_index not in self._steadies:
            self._steadies[setting_index] = self._solver(
                SteadyStateSolver, KrylovSteadySolver, setting_index, ("steady",)
            )
        return self._steadies[setting_index]

    def _solver(self, exact, krylov, setting_index: int, tail: tuple, *args):
        """A solver of this system's tier on a setting's network.

        On the krylov tier the preconditioner-pool key is the sparsity
        structure, the setting index and ``tail`` (``dt`` or steady).
        The pump-setting index is part of the key even though different
        settings share a sparsity pattern — their coolant conductances
        differ enough that cross-setting preconditioning converges
        poorly, and keeping settings apart makes the pool's nearest
        lookup a pure thermal-parameter distance.
        """
        network = self.network(setting_index)
        if self.solver == "exact":
            return exact(network, *args)
        structure = structure_signature(network) + (setting_index,) + tail
        return krylov(network, *args, params=self.params, structure=structure)

    # --- steady-state evaluation ---------------------------------------------

    def steady_tmax(
        self,
        power_model: PowerModel,
        utilization: float,
        setting_index: int = -1,
        memory_intensity: float = 0.5,
        leakage_iterations: int = 6,
    ) -> float:
        """Self-consistent steady-state T_max under uniform utilization.

        Iterates power(T) -> solve -> T until the leakage feedback
        settles (a fixed small iteration count converges well within
        0.01 K for the polynomial model).
        """
        temps = self.steady_temperatures(
            power_model,
            utilization,
            setting_index=setting_index,
            memory_intensity=memory_intensity,
            leakage_iterations=leakage_iterations,
        )
        return self.grid.max_unit_temperature(temps)

    def steady_temperatures(
        self,
        power_model: PowerModel,
        utilization: float,
        setting_index: int = -1,
        memory_intensity: float = 0.5,
        leakage_iterations: int = 6,
    ) -> np.ndarray:
        """Steady-state temperature field (see :meth:`steady_tmax`)."""
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError("utilization must be in [0, 1]")
        temps, _ = self.leakage_fixed_point(
            self.steady_solver(setting_index),
            power_model,
            *self._uniform_load(utilization),
            memory_intensity,
            leakage_iterations,
        )
        return temps

    def _uniform_load(self, utilization: float) -> tuple[list, list]:
        """Per-core utilizations and sleep flags (core order) for a
        uniform load; no core sleeps."""
        n = len(self.core_names)
        return [utilization] * n, [False] * n

    def leakage_fixed_point(
        self,
        solver: SteadyStateSolver,
        power_model: PowerModel,
        core_util: list,
        asleep: list,
        memory_intensity: float,
        leakage_iterations: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Iterate power(T) -> solve -> T for one load pattern.

        ``solver`` is a steady solver on one of this system's networks
        (a pump setting's, or an arbitrary flow's for Figure 5);
        ``core_util`` and ``asleep`` are per core, in
        :attr:`core_names` order. Returns the final node field and its
        unit-temperature vector.
        """
        grid = self.grid
        unit_vec: Optional[np.ndarray] = None
        temps = np.zeros(grid.n_nodes)
        for _ in range(max(1, leakage_iterations)):
            unit_powers = power_model.unit_power_vector(
                grid.unit_keys, core_util, asleep, memory_intensity, unit_vec
            )
            temps = solver.solve(grid.power_vector_from_array(unit_powers))
            unit_vec = grid.unit_temperature_vector(temps)
        return temps, unit_vec

    def steady_temperature_fields(
        self,
        power_model: PowerModel,
        utilizations: "np.ndarray | list[float]",
        setting_index: int = -1,
        memory_intensity: float = 0.5,
        leakage_iterations: int = 6,
    ) -> np.ndarray:
        """Steady fields for many utilizations at once, shape ``(k, n_nodes)``.

        Runs the leakage fixed point for all utilizations in lockstep
        with one multi-RHS triangular solve per iteration; each row
        matches a separate :meth:`steady_temperatures` call to within
        LU roundoff (~1e-14 K). The flow-table characterization sweep
        (Figure 5) uses this to amortize its ``settings x
        utilizations`` grid.
        """
        utils = [float(u) for u in np.atleast_1d(np.asarray(utilizations, dtype=float))]
        if any(not 0.0 <= u <= 1.0 for u in utils):
            raise ConfigurationError("utilization must be in [0, 1]")
        per_util = [self._uniform_load(u) for u in utils]
        solver = self.steady_solver(setting_index)
        grid = self.grid
        unit_vecs: list[Optional[np.ndarray]] = [None] * len(utils)
        temps = np.zeros((grid.n_nodes, len(utils)))
        for _ in range(max(1, leakage_iterations)):
            injections = np.empty((grid.n_nodes, len(utils)))
            for c, (core_util, asleep) in enumerate(per_util):
                unit_powers = power_model.unit_power_vector(
                    grid.unit_keys, core_util, asleep, memory_intensity, unit_vecs[c]
                )
                injections[:, c] = grid.power_vector_from_array(unit_powers)
            temps = solver.solve_many(injections)
            for c in range(len(utils)):
                unit_vecs[c] = grid.unit_temperature_vector(temps[:, c])
        return temps.T

    def steady_tmax_batch(
        self,
        power_model: PowerModel,
        utilizations: "np.ndarray | list[float]",
        setting_index: int = -1,
        memory_intensity: float = 0.5,
        leakage_iterations: int = 6,
    ) -> np.ndarray:
        """Self-consistent steady T_max per utilization (sensor view)."""
        fields = self.steady_temperature_fields(
            power_model,
            utilizations,
            setting_index=setting_index,
            memory_intensity=memory_intensity,
            leakage_iterations=leakage_iterations,
        )
        return np.array(
            [self.grid.max_unit_temperature(field) for field in fields]
        )

    def steady_tmax_concentrated(
        self,
        power_model: PowerModel,
        setting_index: int = -1,
        n_active: int = 1,
        memory_intensity: float = 0.3,
        leakage_iterations: int = 6,
    ) -> float:
        """Steady T_max with the load concentrated on ``n_active`` cores.

        The worst case for low-utilization workloads: one long thread
        pins a single core at full power while the others idle. The
        uniform-utilization characterization underestimates this local
        hot spot, so the flow controller floors its setting at the one
        that can hold this pattern (DESIGN.md section 8).
        """
        core_names = self.core_names
        if not 1 <= n_active <= len(core_names):
            raise ConfigurationError("n_active outside the core count")
        core_util = [1.0] * n_active + [0.0] * (len(core_names) - n_active)
        _, unit_vec = self.leakage_fixed_point(
            self.steady_solver(setting_index),
            power_model,
            core_util,
            [False] * len(core_names),
            memory_intensity,
            leakage_iterations,
        )
        return float(unit_vec.max())

    # --- convenience ------------------------------------------------------------

    def initial_temperatures(self, power_model: PowerModel, utilization: float,
                             setting_index: int = -1) -> np.ndarray:
        """Steady-state initialization (the paper initializes all
        simulations "with steady state temperature values").

        Memoized per ``(power_model, utilization, setting_index)``: every
        run that starts from the same condition on this system shares
        one field, bitwise equal to solving afresh (same LU, same ops).
        The field is read-only, so no run can corrupt another's start.
        The power model is paired with its system by
        :func:`repro.sim.cache.system_for`, so the memo lives and dies
        with the system.
        """
        key = (id(power_model), utilization, setting_index)
        hit = self._initial_fields.get(key)
        if hit is None:
            field = self.steady_temperatures(power_model, utilization, setting_index)
            field.flags.writeable = False
            # The model rides along so its id cannot be reused while
            # the entry lives.
            hit = self._initial_fields[key] = (power_model, field)
        return hit[1]
