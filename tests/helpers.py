"""Shared test fixtures and factories."""

from __future__ import annotations

import numpy as np

from repro.sim.results import SimulationResult


def make_result(
    tmax: np.ndarray,
    core_temperatures: np.ndarray | None = None,
    unit_temperatures: np.ndarray | None = None,
    chip_power: np.ndarray | None = None,
    pump_power: np.ndarray | None = None,
    completed: np.ndarray | None = None,
    interval: float = 0.1,
) -> SimulationResult:
    """Build a synthetic :class:`SimulationResult` for metric tests."""
    tmax = np.asarray(tmax, dtype=float)
    n = len(tmax)
    if core_temperatures is None:
        core_temperatures = np.tile(tmax[:, None], (1, 2))
    if unit_temperatures is None:
        unit_temperatures = np.tile(tmax[:, None], (1, 3))
    if chip_power is None:
        chip_power = np.full(n, 30.0)
    if pump_power is None:
        pump_power = np.zeros(n)
    if completed is None:
        completed = np.ones(n, dtype=int)
    return SimulationResult(
        times=np.arange(1, n + 1) * interval,
        tmax=tmax,
        tmax_cell=tmax + 0.5,
        core_temperatures=np.asarray(core_temperatures, dtype=float),
        unit_temperatures=np.asarray(unit_temperatures, dtype=float),
        unit_names=[f"0:u{i}" for i in range(np.asarray(unit_temperatures).shape[1])],
        core_names=[f"core{i}" for i in range(np.asarray(core_temperatures).shape[1])],
        chip_power=np.asarray(chip_power, dtype=float),
        pump_power=np.asarray(pump_power, dtype=float),
        flow_setting=np.full(n, -1, dtype=int),
        completed_threads=np.asarray(completed, dtype=int),
        forecast_tmax=np.full(n, np.nan),
        migrations=np.zeros(n, dtype=int),
    )


def power_vector(grid, unit_powers: dict) -> np.ndarray:
    """Per-node power injection (W) from ``{(die_index, unit_name): watts}``;
    units left out draw nothing."""
    p = np.zeros(grid.n_units)
    for (die_index, unit_name), watts in unit_powers.items():
        p[grid.unit_position(die_index, unit_name)] = watts
    return grid.power_vector_from_array(p)
