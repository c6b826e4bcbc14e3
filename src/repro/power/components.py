"""Component power model for the UltraSPARC T1-based stacks (Section V).

The paper assumes "the instantaneous dynamic power consumption is equal
to the average power at each state (active, idle, sleep)": 3 W active
cores, 0.02 W asleep, 1.28 W per L2 bank (CACTI 4.0), and a crossbar
whose average power scales "according to the number of active cores and
the memory accesses". Leakage is added on top by
:class:`repro.power.leakage.LeakageModel` using the live temperatures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.constants import POWER
from repro.errors import ModelError
from repro.geometry.floorplan import Unit, UnitKind
from repro.geometry.stack import Stack3D
from repro.power.leakage import LeakageModel


class CoreState(Enum):
    """Power state of one core."""

    ACTIVE = "active"
    IDLE = "idle"
    SLEEP = "sleep"


@dataclass(frozen=True)
class PowerModel:
    """Maps activity to per-unit power for a stack.

    Parameters
    ----------
    stack:
        The 3D system (provides unit names, kinds, areas).
    leakage:
        Temperature-dependent leakage model; pass ``None`` to disable
        leakage entirely (useful for isolating dynamic effects).
    active_power, idle_power, sleep_power, l2_power, crossbar_peak:
        Section V constants (see :mod:`repro.constants`).
    misc_power:
        Constant dynamic power of each "other" (memory control /
        buffering) block, W.
    """

    stack: Stack3D
    leakage: Optional[LeakageModel] = field(default_factory=LeakageModel)
    active_power: float = POWER.core_active_power
    idle_power: float = POWER.core_idle_power
    sleep_power: float = POWER.core_sleep_power
    l2_power: float = POWER.l2_power
    crossbar_peak: float = POWER.crossbar_peak_power
    misc_power: float = 0.2

    def core_power(self, utilization: float, state: CoreState) -> float:
        """Dynamic power of one core over an interval.

        ``utilization`` is the busy fraction of the interval; an awake
        core blends active and idle power accordingly, while a sleeping
        core draws the 0.02 W sleep power regardless.
        """
        if not 0.0 <= utilization <= 1.0:
            raise ModelError(f"utilization {utilization} outside [0, 1]")
        if state is CoreState.SLEEP:
            return self.sleep_power
        return utilization * self.active_power + (1.0 - utilization) * self.idle_power

    def l2_bank_power(self, pair_utilization: float) -> float:
        """Dynamic power of one L2 bank.

        The paper reports a single 1.28 W figure; we scale mildly with
        the utilization of the cores the bank serves so idle periods
        (and DPM sleep) reduce cache activity: 40 % of the power is
        clock/array background, 60 % follows utilization.
        """
        if not 0.0 <= pair_utilization <= 1.0:
            raise ModelError("pair utilization outside [0, 1]")
        return self.l2_power * (0.4 + 0.6 * pair_utilization)

    def crossbar_power(self, active_fraction: float, memory_intensity: float) -> float:
        """Crossbar power scaled by active cores and memory accesses.

        ``memory_intensity`` in [0, 1] derives from the benchmark's L2
        miss statistics (Table II), normalized by the generator.
        """
        if not 0.0 <= active_fraction <= 1.0:
            raise ModelError("active fraction outside [0, 1]")
        if not 0.0 <= memory_intensity <= 1.0:
            raise ModelError("memory intensity outside [0, 1]")
        return self.crossbar_peak * (0.2 + 0.8 * active_fraction * memory_intensity)

    @cached_property
    def _unit_lookup(self) -> dict[tuple[int, str], Unit]:
        """``(die_index, unit_name) -> Unit`` for every floorplan unit."""
        return {
            (die_index, unit.name): unit
            for die_index, die in enumerate(self.stack.dies)
            for unit in die.floorplan
        }

    @cached_property
    def _vector_plans(self) -> dict:
        """Per-``unit_keys`` static layout cache for the vector path."""
        return {}

    def _vector_plan(self, unit_keys: tuple) -> dict:
        plan = self._vector_plans.get(unit_keys)
        if plan is not None:
            return plan
        lookup = self._unit_lookup
        core_order = {name: i for i, name in enumerate(self.stack.core_names())}
        core_pos, core_index = [], []
        l2_pos, l2_partners = [], []
        xbar_pos, misc_pos = [], []
        leak_base = np.empty(len(unit_keys))
        for u, key in enumerate(unit_keys):
            try:
                unit = lookup[key]
            except KeyError:
                raise ModelError(f"unknown unit {key!r} for this stack")
            if self.leakage is not None and unit.area <= 0.0:
                raise ModelError("unit area must be positive")
            leak_base[u] = (
                self.leakage.density_for(unit.kind) * unit.area
                if self.leakage is not None
                else 0.0
            )
            if unit.kind is UnitKind.CORE:
                core_pos.append(u)
                core_index.append(core_order[unit.name])
            elif unit.kind is UnitKind.L2:
                l2_pos.append(u)
                l2_partners.append(_bank_partners(unit.name, core_order))
            elif unit.kind is UnitKind.CROSSBAR:
                xbar_pos.append(u)
            else:
                misc_pos.append(u)
        partners = np.array(l2_partners, dtype=np.int64).reshape(-1, 2)
        plan = {
            "core_names": tuple(core_order),
            "core_pos": np.array(core_pos, dtype=np.int64),
            "core_index": np.array(core_index, dtype=np.int64),
            "l2_pos": np.array(l2_pos, dtype=np.int64),
            "l2_a": partners[:, 0],
            "l2_b": partners[:, 1],
            "xbar_pos": np.array(xbar_pos, dtype=np.int64),
            "misc_pos": np.array(misc_pos, dtype=np.int64),
            "leak_base": leak_base,
        }
        self._vector_plans[unit_keys] = plan
        return plan

    def unit_power_vector(
        self,
        unit_keys: Sequence[tuple[int, str]],
        utilization: Sequence[float],
        asleep: Sequence[bool],
        memory_intensity: float,
        unit_temperatures: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-unit total (dynamic + leakage) power, aligned to ``unit_keys``.

        Parameters
        ----------
        unit_keys:
            The grid's stable unit ordering
            (:attr:`repro.thermal.grid.ThermalGrid.unit_keys`).
        utilization:
            Busy fraction of each core over the interval, in
            ``stack.core_names()`` order.
        asleep:
            Whether each core is in DPM sleep, same order. A sleeping
            core draws the sleep power and no leakage (power-gated), and
            counts as idle for its L2 bank and the crossbar.
        memory_intensity:
            Workload memory intensity in [0, 1] for the crossbar.
        unit_temperatures:
            The previous interval's unit temperatures, aligned to
            ``unit_keys``, for leakage; ``None`` evaluates leakage at its
            reference point.
        """
        plan = self._vector_plan(tuple(unit_keys))
        names = plan["core_names"]
        if len(utilization) != len(names) or len(asleep) != len(names):
            raise ModelError(
                f"need a utilization and a sleep flag for each of {len(names)} cores"
            )
        # The crossbar's active fraction sums left to right in core order;
        # a numpy reduction may round differently.
        awake_util = 0
        for name, u, sleeping in zip(names, utilization, asleep):
            if not 0.0 <= u <= 1.0:
                raise ModelError(f"utilization {u} of {name} outside [0, 1]")
            if not sleeping:
                awake_util += u
        active_fraction = awake_util / len(names)

        util = np.array(utilization, dtype=float)
        sleep = np.array(asleep, dtype=bool)
        core_util = util[plan["core_index"]]
        core_asleep = sleep[plan["core_index"]]
        out = np.empty(len(unit_keys))
        out[plan["core_pos"]] = np.where(
            core_asleep,
            self.sleep_power,
            core_util * self.active_power + (1.0 - core_util) * self.idle_power,
        )
        served = np.where(sleep, 0.0, util)
        pair_util = (served[plan["l2_a"]] + served[plan["l2_b"]]) / 2
        out[plan["l2_pos"]] = self.l2_power * (0.4 + 0.6 * pair_util)
        out[plan["xbar_pos"]] = self.crossbar_power(active_fraction, memory_intensity)
        out[plan["misc_pos"]] = self.misc_power

        if self.leakage is not None:
            lk = self.leakage
            if unit_temperatures is None:
                leak = plan["leak_base"].copy()  # factor(T_ref) == 1.0 exactly
            else:
                t = np.asarray(unit_temperatures, dtype=float)
                dt = t - lk.reference_temperature
                factor = np.maximum(1.0 + lk.linear * dt + lk.quadratic * dt * dt, 0.1)
                leak = plan["leak_base"] * factor
            if any(asleep):
                leak[plan["core_pos"][core_asleep]] = 0.0  # power-gated cores
            out += leak
        return out

    def unit_power_matrix(
        self,
        unit_keys: Sequence[tuple[int, str]],
        utilization: Sequence[Sequence[float]],
        asleep: Sequence[Sequence[bool]],
        memory_intensity: float,
        unit_temperatures: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """:meth:`unit_power_vector` of ``k`` loads in one array pass:
        ``(k, n_units)``, row ``c`` from ``utilization[c]``, ``asleep[c]``
        and ``unit_temperatures[c]`` (``None`` for every row evaluates
        leakage at its reference point). Every operation is elementwise
        or per row, so each row is bitwise what the single call gives.
        The flow table's leakage fixed point iterates all its loads in
        one call; the per-interval path keeps the one-load method, which
        is faster for a single load.
        """
        plan = self._vector_plan(tuple(unit_keys))
        names = plan["core_names"]
        util = np.array(utilization, dtype=float)
        sleep = np.array(asleep, dtype=bool)
        if util.ndim != 2 or util.shape[1] != len(names) or sleep.shape != util.shape:
            raise ModelError(
                f"need a utilization and a sleep flag for each of {len(names)} cores"
            )
        # The crossbar's active fraction sums left to right in core order,
        # per load; a numpy reduction may round differently.
        crossbar = []
        for row, row_asleep in zip(util.tolist(), sleep.tolist()):
            awake_util = 0
            for name, u, sleeping in zip(names, row, row_asleep):
                if not 0.0 <= u <= 1.0:
                    raise ModelError(f"utilization {u} of {name} outside [0, 1]")
                if not sleeping:
                    awake_util += u
            crossbar.append(self.crossbar_power(awake_util / len(names), memory_intensity))

        core_util = util[:, plan["core_index"]]
        core_asleep = sleep[:, plan["core_index"]]
        out = np.empty((len(util), len(unit_keys)))
        out[:, plan["core_pos"]] = np.where(
            core_asleep,
            self.sleep_power,
            core_util * self.active_power + (1.0 - core_util) * self.idle_power,
        )
        served = np.where(sleep, 0.0, util)
        pair_util = (served[:, plan["l2_a"]] + served[:, plan["l2_b"]]) / 2
        out[:, plan["l2_pos"]] = self.l2_power * (0.4 + 0.6 * pair_util)
        out[:, plan["xbar_pos"]] = np.array(crossbar)[:, None]
        out[:, plan["misc_pos"]] = self.misc_power

        if self.leakage is not None:
            lk = self.leakage
            if unit_temperatures is None:
                leak = np.tile(plan["leak_base"], (len(util), 1))  # factor(T_ref) == 1.0
            else:
                t = np.asarray(unit_temperatures, dtype=float)
                dt = t - lk.reference_temperature
                factor = np.maximum(1.0 + lk.linear * dt + lk.quadratic * dt * dt, 0.1)
                leak = plan["leak_base"] * factor
            core_leak = leak[:, plan["core_pos"]]
            core_leak[core_asleep] = 0.0  # power-gated cores
            leak[:, plan["core_pos"]] = core_leak
            out += leak
        return out


def _bank_partners(bank_name: str, core_order: Mapping[str, int]) -> tuple[int, int]:
    """Core-order indices of the two cores an L2 bank serves.

    Each L2 bank serves two cores (T1: one shared L2 per two cores);
    with cores and caches on different tiers, bank ``l2_k`` of a cache
    die serves cores ``core{2k}`` and ``core{2k+1}`` of the core die
    below it in stacking order.
    """
    try:
        k = int(bank_name.rsplit("_", 1)[1])
    except (IndexError, ValueError):
        raise ModelError(f"unrecognized L2 bank name {bank_name!r}")
    partners = []
    for name in (f"core{2 * k}", f"core{2 * k + 1}"):
        if name not in core_order:
            raise ModelError(
                f"L2 bank {bank_name!r} serves {name!r}, which this stack lacks"
            )
        partners.append(core_order[name])
    return partners[0], partners[1]
