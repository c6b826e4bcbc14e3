"""The array-form power map, kept as a bitwise reference.

A line-for-line copy of the numpy body ``PowerModel.unit_power_vector``
had before it moved to Python floats over the units: about 25 array
operations on unit-sized vectors. The property suite pins the
Python-float body to this one bitwise, for every sleep mix, with
leakage on and off, and with ``None``, finite and NaN temperatures.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError


def numpy_unit_power_vector(
    model, unit_keys, utilization, asleep, memory_intensity, unit_temperatures=None
) -> np.ndarray:
    plan = model._vector_plan(tuple(unit_keys))
    names = plan["core_names"]
    if len(utilization) != len(names) or len(asleep) != len(names):
        raise ModelError(
            f"need a utilization and a sleep flag for each of {len(names)} cores"
        )
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
        model.sleep_power,
        core_util * model.active_power + (1.0 - core_util) * model.idle_power,
    )
    served = np.where(sleep, 0.0, util)
    pair_util = (served[plan["l2_a"]] + served[plan["l2_b"]]) / 2
    out[plan["l2_pos"]] = model.l2_power * (0.4 + 0.6 * pair_util)
    out[plan["xbar_pos"]] = model.crossbar_power(active_fraction, memory_intensity)
    out[plan["misc_pos"]] = model.misc_power

    if model.leakage is not None:
        lk = model.leakage
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
