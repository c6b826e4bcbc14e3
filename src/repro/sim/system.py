"""Bundles a stack with its thermal networks across pump settings.

The conductance matrix changes only when the pump setting changes, so
the system caches one assembled network (and one transient solver) per
setting — the runtime cost of a flow change is a cached factorization
lookup, matching the paper's observation that the controller overhead
is "negligible". Assembly, like the LUs and ``R`` below, is shared by
content across systems: the coolant inlet enters only the boundary
vector, so :func:`~repro.thermal.rc_network.build_network` hands every
system of an inlet sweep the same read-only ``G`` and ``C`` (and their
time-step matrices and LU-store digests) and fills only ``b`` per
system.

The characterization (flow table, burst floor, steady T_max) runs its
leakage fixed point in unit space, exactly up to roundoff: the
unit->cell power scatter ``S``, ``G^-1`` and the unit mean ``U`` are all
linear, and leakage reads only unit temperatures, so steady unit
temperatures are affine in unit powers, ``t = base + R p`` with
``base = U G^-1 b`` and ``R = U G^-1 S`` (:meth:`ThermalSystem.unit_response`).
``R`` depends on the matrix and the grid alone, so it is solved once per
steady LU and shared by every system on that matrix (the points of an
inlet sweep); ``base`` is one boundary column per system and setting.
Each iteration is an ``n_units``-square matvec instead of a field
solve. The steady field is affine in the same powers, ``T = Phi p + phi``
with ``Phi = G^-1 S`` (the fields ``R`` is read from) and
``phi = G^-1 b`` (the field ``base`` is read from), so on the exact tier
the initial field every run starts from is one ``n_nodes x n_units``
matvec on the powers of the unit-space loop's last iteration. A system
keeps ``Phi`` and ``phi`` of its start setting only. The initial field
itself is not kept here: :meth:`ThermalSystem.initial_temperatures`
computes it and :class:`~repro.sim.cache.CharacterizationCache` keeps
it, keyed by the config, so it outlives the system and warm-up can
release every steady LU. The krylov tier and Figure 5's per-flow
networks run the same loop with one field solve per iteration; a
krylov config that reads TALB weights solves its initial field on the
exact LU its weights factorize, as six direct solves. The TALB weights stay on
fields, because their mirror-core ties are ordered by LU roundoff alone.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.stack import CoolingKind, Stack3D, build_stack
from repro.microchannel.geometry import ChannelGeometry
from repro.microchannel.model import MicrochannelModel
from repro.power.components import PowerModel
from repro.pump.laing_ddc import laing_ddc
from repro.telemetry import metrics as _metrics
from repro.thermal.grid import ThermalGrid
from repro.thermal.package import AirPackage
from repro.thermal.rc_network import RCNetwork, ThermalParams, build_network
from repro.thermal.solver import (
    KrylovSteadySolver,
    KrylovTransientSolver,
    SteadyStateSolver,
    TransientSolver,
    seed_preconditioner,
    structure_signature,
)

_UNIT_RESPONSES = _metrics.counter("sim.characterize.unit_responses")
"""Unit-response solves: ``kind=response`` per distinct ``R`` (one per
steady matrix and grid), ``kind=base`` per system and setting."""

_LEAKAGE_RESIDUAL = _metrics.gauge("sim.leakage.residual", local=True)
"""``max |u_6 - u_5|`` (K) of the last leakage fixed point, over its
loads and units: how far its final iteration still moved the unit
temperatures."""

LEAKAGE_ITERATIONS = 6
"""Fixed iteration count of every leakage fixed point (power(T) -> T).
The sixth iteration moves unit temperatures by at most 1.1e-3 K on the
2-layer liquid stack at 16x16 to 48x48, worst at a 75 degC inlet, the
lowest pump setting and full load (the ``sim.leakage.residual``
gauge)."""


class ThermalSystem:
    """A 3D system ready to simulate: grid + per-setting networks.

    A liquid-cooled system pumps with the Laing DDC sized to the
    stack's cavities, an air-cooled one sits in the default
    :class:`AirPackage`. Neither is a parameter, so a system's config
    alone keys its characterizations (:func:`repro.sim.cache.system_key`).

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
    solver:
        Thermal linear-solver tier: ``"exact"`` (sparse LU, the
        default) or ``"krylov"`` (neighbor-LU preconditioned GMRES —
        reuses nearby design points' factorizations from the
        process-wide :class:`~repro.thermal.solver.NeighborFactorCache`
        pool instead of factorizing per system).
    """

    def __init__(
        self,
        n_layers: int = 2,
        cooling: CoolingKind = CoolingKind.LIQUID,
        nx: int = 16,
        ny: int = 16,
        params: ThermalParams = ThermalParams(),
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
            self.pump = laing_ddc(self.stack.n_cavities)
            self.package = None
        else:
            self.pump = None
            self.package = AirPackage()
        self.channel_model = MicrochannelModel(
            geometry=ChannelGeometry(length=self.stack.width),
            die_height=self.stack.height,
        )
        self._networks: dict[int, RCNetwork] = {}
        self._transients: dict[tuple, TransientSolver] = {}
        self._steadies: dict[int, SteadyStateSolver] = {}
        self._unit_responses: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._start_fields: Optional[tuple[np.ndarray, np.ndarray]] = None

    # --- network/solver caches --------------------------------------------------

    def network(self, setting_index: int = -1) -> RCNetwork:
        """The RC network for a pump setting (-1 = air cooling); its
        ``G`` and ``C`` are shared with any live system that differs
        only in coolant inlet (see :func:`build_network`)."""
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

    @property
    def start_setting(self) -> int:
        """The cooling condition every run starts from: the top pump
        setting (start safe, at max flow), or -1 for air."""
        return -1 if self.pump is None else self.pump.n_settings - 1

    def release_steady(self, setting_index: int) -> None:
        """Drop the cached steady solver of a setting, if any.

        Its LU leaves the store once no other solver holds it. What was
        derived from it stays: unit responses and the start setting's
        ``Phi`` and ``phi`` on the system, initial fields and weight sets
        in the characterization cache, all plain arrays, so a warmed
        exact-tier system starts its runs without a steady LU. A later
        :meth:`steady_solver` call builds a fresh solver, bitwise the
        same on the exact tier.
        """
        self._steadies.pop(setting_index, None)

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
        structure = self._pool_structure(setting_index, tail)
        return krylov(network, *args, params=self.params, structure=structure)

    def _pool_structure(self, setting_index: int, tail: tuple) -> tuple:
        """The preconditioner-pool key of a krylov solver on a setting's
        network (see :meth:`_solver`)."""
        return structure_signature(self.network(setting_index)) + (setting_index,) + tail

    def seed_preconditioner(self, dt: Optional[float] = None) -> bool:
        """Retain this krylov system's LU of its start setting's
        time-step matrix at ``dt`` (the steady ``G`` when ``dt`` is
        None) in the preconditioner pool, under the key its own solvers
        look up (:func:`~repro.thermal.solver.seed_preconditioner`).
        Warm-up seeds a design sweep's medoid this way. Returns whether
        it factorized (``False``: the pool already held this operator).
        """
        setting = self.start_setting
        tail = ("steady",) if dt is None else ("dt", dt)
        return seed_preconditioner(
            self.network(setting), self.params, self._pool_structure(setting, tail), dt
        )

    # --- steady-state evaluation ---------------------------------------------

    def steady_tmax(
        self,
        power_model: PowerModel,
        utilization: float,
        setting_index: int = -1,
        memory_intensity: float = 0.5,
    ) -> float:
        """Self-consistent steady-state T_max under uniform utilization
        (:meth:`steady_tmax_batch` of one utilization)."""
        tmax = self.steady_tmax_batch(power_model, [utilization], setting_index, memory_intensity)
        return float(tmax[0])

    def steady_temperatures(
        self,
        power_model: PowerModel,
        utilization: float,
        setting_index: int = -1,
        memory_intensity: float = 0.5,
        solver: Optional[SteadyStateSolver] = None,
    ) -> np.ndarray:
        """Steady-state temperature field under uniform utilization (the
        load :meth:`steady_tmax` sees; see :meth:`steady_field`)."""
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError("utilization must be in [0, 1]")
        return self.steady_field(
            power_model, *self._uniform_load(utilization), memory_intensity,
            setting_index=setting_index, solver=solver,
        )

    def _uniform_load(self, utilization: float) -> tuple[list, list]:
        """Per-core utilizations and sleep flags (core order) for a
        uniform load; no core sleeps."""
        n = len(self.core_names)
        return [utilization] * n, [False] * n

    def steady_field(
        self,
        power_model: PowerModel,
        core_util: list,
        asleep: list,
        memory_intensity: float,
        setting_index: int = -1,
        solver: Optional[SteadyStateSolver] = None,
    ) -> np.ndarray:
        """Self-consistent steady node field of one load pattern.

        ``core_util`` and ``asleep`` are per core, in :attr:`core_names`
        order. With no ``solver`` the field is a pump setting's: on the
        exact tier ``Phi p + phi`` for the powers ``p`` of the unit-space
        loop's last iteration (:meth:`unit_response`; the start
        setting's ``Phi`` is kept, any other setting's is solved for the
        call), on the krylov tier one GMRES field solve per iteration.
        ``solver`` is a steady solver to iterate on instead, with one
        field solve per iteration: on another of this system's networks
        (Figure 5's arbitrary flows), or the exact solver of a krylov
        system's start setting.
        """
        loads = [(core_util, asleep)]
        if solver is None and self.solver == "exact":
            powers, _, _ = self._unit_fixed_point(
                power_model, loads, setting_index, memory_intensity
            )
            fields, base_field = self._steady_fields(setting_index)
            return fields @ powers[0] + base_field
        if solver is None:
            solver = self.steady_solver(setting_index)
        _, _, fields = self._leakage_loop(
            power_model, loads, memory_intensity, self._field_solves(solver)
        )
        return fields[0]

    def _leakage_loop(
        self, power_model: PowerModel, loads: list, memory_intensity: float, evaluate,
    ) -> tuple[np.ndarray, np.ndarray, Optional[list]]:
        """The leakage fixed point power(T) -> T of many
        ``(core_util, asleep)`` loads in lockstep, the one copy of the
        iteration.

        ``evaluate(powers)`` maps unit powers ``(k, n_units)`` to unit
        temperatures of the same shape and the node fields they were
        read from (``None`` when there are none). Returns the last
        iteration's powers, unit temperatures and fields, and publishes
        how far that iteration moved the temperatures
        (``sim.leakage.residual``).
        """
        utils = [core_util for core_util, _ in loads]
        asleep = [flags for _, flags in loads]
        temps = previous = None
        for _ in range(LEAKAGE_ITERATIONS):
            powers = power_model.unit_power_matrix(
                self.grid.unit_keys, utils, asleep, memory_intensity, temps
            )
            previous = temps
            temps, fields = evaluate(powers)
        _LEAKAGE_RESIDUAL.set(float(np.abs(temps - previous).max()))
        return powers, temps, fields

    def _field_solves(self, solver: SteadyStateSolver):
        """A :meth:`_leakage_loop` evaluation by one field solve per load."""
        grid = self.grid

        def evaluate(powers: np.ndarray) -> tuple[np.ndarray, list]:
            fields = [solver.solve(grid.power_vector_from_array(p)) for p in powers]
            return np.array([grid.unit_temperature_vector(f) for f in fields]), fields

        return evaluate

    def unit_response(self, setting_index: int = -1) -> tuple[np.ndarray, np.ndarray]:
        """``(base, R)``: steady unit temperatures are ``base + R @ p`` for
        unit powers ``p``; memoized per setting, the arrays read-only.

        ``R = U G^-1 S`` is read from one ``n_units``-column solve of one
        watt per unit with no boundary vector, so it depends on the
        matrix and the grid alone. It lives in the steady solver's
        :attr:`~repro.thermal.solver.SteadyStateSolver.memo`, keyed by
        the grid's unit-operator digest: on the exact tier that is the
        LU store's handle, so every system whose steady ``G`` is the
        same matrix shares one ``R`` object, freed with the LU; on the
        krylov tier it stays with the system's own core.
        ``base = U G^-1 b`` is read from one boundary-only column per
        system. On the exact tier the start setting also keeps the two
        fields, ``Phi = G^-1 S`` (shared through the same memo) and
        ``phi = G^-1 b``, which :meth:`steady_field` maps powers through.
        """
        hit = self._unit_responses.get(setting_index)
        if hit is None:
            grid = self.grid
            solver = self.steady_solver(setting_index)
            keep = self.solver == "exact" and setting_index == self.start_setting
            fields_key = ("unit_fields", grid.unit_operator_digest)
            key = ("unit_response", grid.unit_operator_digest)
            response = solver.memo.get(key)
            fields = solver.memo.get(fields_key) if keep else None
            if response is None or (keep and fields is None):
                _UNIT_RESPONSES.inc(kind="response")
                fields = self._response_fields(solver)
                response = np.column_stack(
                    [grid.unit_temperature_vector(f) for f in fields.T]
                )
                response.flags.writeable = False
                response = solver.memo.setdefault(key, response)
                if keep:
                    fields.flags.writeable = False
                    fields = solver.memo.setdefault(fields_key, fields)
            _UNIT_RESPONSES.inc(kind="base")
            base_field = self._boundary_field(solver)
            base = grid.unit_temperature_vector(base_field)
            base.flags.writeable = False
            if keep:
                base_field.flags.writeable = False
                self._start_fields = (fields, base_field)
            hit = self._unit_responses[setting_index] = (base, response)
        return hit

    def _response_fields(self, solver: SteadyStateSolver) -> np.ndarray:
        """``G^-1 S``: the field of one watt in each unit, no boundary
        vector, ``(n_nodes, n_units)``."""
        grid = self.grid
        scatter = np.column_stack(
            [grid.power_vector_from_array(watt) for watt in np.eye(grid.n_units)]
        )
        return solver.solve_many(scatter, boundary=False)

    def _boundary_field(self, solver: SteadyStateSolver) -> np.ndarray:
        """``G^-1 b``: the field of the boundary vector alone."""
        return solver.solve_many(np.zeros((self.grid.n_nodes, 1)))[:, 0]

    def _steady_fields(self, setting_index: int) -> tuple[np.ndarray, np.ndarray]:
        """``(Phi, phi)`` of an exact-tier setting: the start setting's
        kept pair, or any other setting's solved afresh and not kept."""
        if setting_index == self.start_setting:
            self.unit_response(setting_index)
            return self._start_fields
        solver = self.steady_solver(setting_index)
        return self._response_fields(solver), self._boundary_field(solver)

    def _unit_fixed_point(
        self, power_model: PowerModel, loads: list, setting_index: int,
        memory_intensity: float,
    ) -> tuple[np.ndarray, np.ndarray, None]:
        """:meth:`_leakage_loop` of many loads on :meth:`unit_response`:
        each iteration is ``base + p R^T``."""
        base, response = self.unit_response(setting_index)
        return self._leakage_loop(
            power_model, loads, memory_intensity,
            lambda powers: (base + powers @ response.T, None),
        )

    def steady_tmax_batch(
        self,
        power_model: PowerModel,
        utilizations: "np.ndarray | list[float]",
        setting_index: int = -1,
        memory_intensity: float = 0.5,
    ) -> np.ndarray:
        """Self-consistent steady T_max per uniform utilization (sensor
        view, :data:`LEAKAGE_ITERATIONS` iterations): the flow table's
        sweep (Figure 5), one call per setting."""
        utils = [float(u) for u in np.atleast_1d(np.asarray(utilizations, dtype=float))]
        if any(not 0.0 <= u <= 1.0 for u in utils):
            raise ConfigurationError("utilization must be in [0, 1]")
        loads = [self._uniform_load(u) for u in utils]
        _, temps, _ = self._unit_fixed_point(power_model, loads, setting_index, memory_intensity)
        return temps.max(axis=1)

    def steady_tmax_concentrated(
        self,
        power_model: PowerModel,
        setting_index: int = -1,
        n_active: int = 1,
        memory_intensity: float = 0.3,
    ) -> float:
        """Steady T_max with the load concentrated on ``n_active`` cores.

        The worst case for low-utilization workloads: one long thread
        pins a single core at full power while the others idle. The
        uniform-utilization characterization underestimates this local
        hot spot, so the flow controller floors its setting at the one
        that can hold this pattern (the burst floor).
        """
        n = len(self.core_names)
        if not 1 <= n_active <= n:
            raise ConfigurationError("n_active outside the core count")
        load = ([1.0] * n_active + [0.0] * (n - n_active), [False] * n)
        _, temps, _ = self._unit_fixed_point(
            power_model, [load], setting_index, memory_intensity
        )
        return float(temps.max())

    # --- convenience ------------------------------------------------------------

    def initial_temperatures(
        self,
        power_model: PowerModel,
        utilization: float,
        setting_index: int = -1,
        solver: Optional[SteadyStateSolver] = None,
    ) -> np.ndarray:
        """Steady-state initialization (the paper initializes all
        simulations "with steady state temperature values"), read-only.

        The one path that computes a run's initial field; runs read it
        through :meth:`repro.sim.cache.CharacterizationCache.initial_field`,
        which keys and keeps it. On the exact tier it is ``Phi p + phi``
        on the setting's unit response (:meth:`steady_field`); with a
        ``solver`` on the setting's network (the exact solver a krylov
        TALB config's field is solved on) the leakage loop runs one
        field solve per iteration on it.
        """
        field = self.steady_temperatures(
            power_model, utilization, setting_index, solver=solver
        )
        field.flags.writeable = False
        return field
