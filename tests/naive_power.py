"""Naive (dict-keyed, per-unit) reference implementation of the power map.

A line-for-line retained copy of ``PowerModel.unit_powers`` and its
helpers as they were before the power model took core-indexed arrays:
per-core utilizations and DPM states arrive as ``{core_name: ...}``
dicts and every unit's power is computed in a Python loop. The
equivalence suite pins :meth:`repro.power.components.PowerModel.
unit_power_vector` to this reference elementwise, bitwise.
"""

from __future__ import annotations

from repro.errors import ModelError
from repro.geometry.floorplan import UnitKind
from repro.power.components import CoreState, PowerModel


def naive_active_fraction(core_utilization, core_states) -> float:
    awake = [name for name, state in core_states.items() if state is not CoreState.SLEEP]
    total_cores = max(len(core_states), 1)
    return sum(core_utilization.get(name, 0.0) for name in awake) / total_cores


def naive_bank_pair_utilization(bank_name: str, core_utilization, core_states) -> float:
    """Mean utilization of the two cores served by an L2 bank; a
    sleeping core contributes zero."""
    try:
        bank_index = int(bank_name.rsplit("_", 1)[1])
    except (IndexError, ValueError):
        raise ModelError(f"unrecognized L2 bank name {bank_name!r}")
    utils = []
    for core_index in (2 * bank_index, 2 * bank_index + 1):
        name = f"core{core_index}"
        if core_states.get(name) is CoreState.SLEEP:
            utils.append(0.0)
        else:
            utils.append(core_utilization.get(name, 0.0))
    return sum(utils) / len(utils)


def naive_unit_power(
    model: PowerModel,
    unit,
    temperature: float,
    core_utilization,
    core_states,
    memory_intensity: float,
    active_fraction: float,
) -> float:
    """Total (dynamic + leakage) power of one unit."""
    if unit.kind is UnitKind.CORE:
        state = core_states.get(unit.name, CoreState.IDLE)
        util = core_utilization.get(unit.name, 0.0)
        dynamic = model.core_power(util, state)
        asleep = state is CoreState.SLEEP
    elif unit.kind is UnitKind.L2:
        pair_util = naive_bank_pair_utilization(unit.name, core_utilization, core_states)
        dynamic = model.l2_bank_power(pair_util)
        asleep = False
    elif unit.kind is UnitKind.CROSSBAR:
        dynamic = model.crossbar_power(active_fraction, memory_intensity)
        asleep = False
    else:
        dynamic = model.misc_power
        asleep = False
    total = dynamic
    if model.leakage is not None:
        total += model.leakage.unit_leakage(unit.kind, unit.area, temperature, asleep=asleep)
    return total


def naive_unit_powers(
    model: PowerModel,
    core_utilization,
    core_states,
    memory_intensity: float,
    unit_temperatures=None,
) -> dict:
    """``{(die_index, unit_name): watts}`` covering every floorplan unit."""
    ref = model.leakage.reference_temperature if model.leakage is not None else 60.0
    active_fraction = naive_active_fraction(core_utilization, core_states)
    powers = {}
    for die_index, die in enumerate(model.stack.dies):
        for unit in die.floorplan:
            key = (die_index, unit.name)
            temperature = unit_temperatures.get(key, ref) if unit_temperatures else ref
            powers[key] = naive_unit_power(
                model,
                unit,
                temperature,
                core_utilization,
                core_states,
                memory_intensity,
                active_fraction,
            )
    return powers
