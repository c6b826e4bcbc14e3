"""Naive (pre-vectorization) reference implementations of the thermal
hot path.

These are line-for-line retained copies of the per-unit / per-cell
Python-loop implementations the vectorized substrate replaced (PR 3):
unit<->cell scatter/gather in ``ThermalGrid`` and the cell-by-cell
network assembly in ``rc_network``. The equivalence suite pins the
vectorized path to these references *exactly* (bitwise for the
operators and the assembled matrices), so any semantic drift in a
future optimization shows up as a hard failure, not a tolerance creep.

The assembly references drive the real :class:`_Assembler` through its
scalar entry points; both paths share the canonical duplicate-summing
:meth:`_Assembler.to_csr`, which makes the comparison emission-order
independent.

The characterization references are the field-space leakage fixed
point the unit-space one (``ThermalSystem.unit_response``) replaced:
every load pattern iterates in lockstep with one multi-RHS steady solve
of the full temperature field per iteration. The two agree to roundoff,
not bitwise, so the equivalence suite compares them with a tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.constants import STACK
from repro.geometry.floorplan import UnitKind
from repro.microchannel.model import MicrochannelModel
from repro.thermal.grid import SlabKind, ThermalGrid
from repro.thermal.package import AirPackage
from repro.thermal.rc_network import (
    RCNetwork,
    ThermalParams,
    _Assembler,
    _beol_resistance,
    _die_half_resistance,
    _series,
    _tsv_fill_fraction,
    _tsv_mask,
)

# --- grid operators ----------------------------------------------------------


def naive_unit_cells(grid: ThermalGrid, die_index: int, unit_name: str) -> np.ndarray:
    """Original raster-scan unit->cells lookup."""
    floorplan = grid.stack.dies[die_index].floorplan
    unit_idx = floorplan.units.index(floorplan.unit(unit_name))
    mask = grid.rasters[die_index] == unit_idx
    return grid.slab_nodes(grid.die_slab_index(die_index))[mask]


def naive_power_vector(grid: ThermalGrid, unit_powers) -> np.ndarray:
    """Original per-unit scatter loop (one division per unit)."""
    p = np.zeros(grid.n_nodes)
    for (die_index, unit_name), watts in unit_powers.items():
        cells = naive_unit_cells(grid, die_index, unit_name)
        p[cells] += watts / cells.size
    return p


def naive_unit_temperature(grid: ThermalGrid, temperatures, die_index, unit_name) -> float:
    """Per-unit mean via a sequential scalar sum over the unit's cells
    (the summation order of a sparse gather-row matvec)."""
    cells = naive_unit_cells(grid, die_index, unit_name)
    total = 0.0
    for c in cells:
        total += float(temperatures[c])
    return total / cells.size


def naive_unit_temperatures(grid: ThermalGrid, temperatures) -> dict:
    out = {}
    for d, die in enumerate(grid.stack.dies):
        for unit in die.floorplan:
            out[(d, unit.name)] = naive_unit_temperature(grid, temperatures, d, unit.name)
    return out


def naive_core_temperatures(grid: ThermalGrid, temperatures) -> dict:
    out = {}
    for d, die in enumerate(grid.stack.dies):
        for unit in die.floorplan.units_of_kind(UnitKind.CORE):
            out[unit.name] = naive_unit_temperature(grid, temperatures, d, unit.name)
    return out


def naive_max_die_temperature(grid: ThermalGrid, temperatures) -> float:
    return max(
        float(temperatures[grid.slab_nodes(s)].max()) for s in grid.die_slab_indices()
    )


def naive_max_unit_temperature(grid: ThermalGrid, temperatures) -> float:
    return max(naive_unit_temperatures(grid, temperatures).values())


def naive_die_slab_index(grid: ThermalGrid, die_index: int) -> int:
    """Original O(n_slabs) linear scan."""
    for s, slab in enumerate(grid.slabs):
        if slab.kind is SlabKind.DIE and slab.die_index == die_index:
            return s
    raise LookupError(die_index)


def naive_cavity_slab_index(grid: ThermalGrid, cavity_index: int) -> int:
    for s, slab in enumerate(grid.slabs):
        if slab.kind is SlabKind.CAVITY and slab.cavity_index == cavity_index:
            return s
    raise LookupError(cavity_index)


# --- steady characterization -------------------------------------------------


def naive_steady_fields(
    system, power_model, loads, setting_index, memory_intensity, leakage_iterations=6
) -> np.ndarray:
    """Steady fields of many ``(core_util, asleep)`` loads in lockstep,
    shape ``(k, n_nodes)`` (the retained field loop)."""
    solver = system.steady_solver(setting_index)
    grid = system.grid
    unit_vecs = [None] * len(loads)
    temps = np.zeros((grid.n_nodes, len(loads)))
    for _ in range(max(1, leakage_iterations)):
        injections = np.empty((grid.n_nodes, len(loads)))
        for c, (core_util, asleep) in enumerate(loads):
            unit_powers = power_model.unit_power_vector(
                grid.unit_keys, core_util, asleep, memory_intensity, unit_vecs[c]
            )
            injections[:, c] = grid.power_vector_from_array(unit_powers)
        temps = solver.solve_many(injections)
        for c in range(len(loads)):
            unit_vecs[c] = grid.unit_temperature_vector(temps[:, c])
    return temps.T


def _uniform(system, utilization):
    n = len(system.core_names)
    return [utilization] * n, [False] * n


def naive_steady_temperature_fields(
    system, power_model, utilizations, setting_index=-1, memory_intensity=0.5
) -> np.ndarray:
    """Steady fields for many uniform utilizations, ``(k, n_nodes)``."""
    loads = [_uniform(system, float(u)) for u in utilizations]
    return naive_steady_fields(system, power_model, loads, setting_index, memory_intensity)


def naive_steady_tmax_batch(
    system, power_model, utilizations, setting_index=-1, memory_intensity=0.5
) -> np.ndarray:
    """Sensor-view steady T_max per uniform utilization, from fields."""
    fields = naive_steady_temperature_fields(
        system, power_model, utilizations, setting_index, memory_intensity
    )
    return np.array([system.grid.max_unit_temperature(field) for field in fields])


def naive_steady_tmax_concentrated(
    system, power_model, setting_index=-1, n_active=1, memory_intensity=0.3
) -> float:
    """Sensor-view steady T_max with ``n_active`` cores fully loaded."""
    n = len(system.core_names)
    load = ([1.0] * n_active + [0.0] * (n - n_active), [False] * n)
    (field,) = naive_steady_fields(system, power_model, [load], setting_index, memory_intensity)
    return system.grid.max_unit_temperature(field)


# --- network assembly --------------------------------------------------------


def _naive_die_lateral(asm, grid, slab_idx, thickness, k):
    g_x = k * thickness * grid.cell_h / grid.cell_w
    g_y = k * thickness * grid.cell_w / grid.cell_h
    for j in range(grid.ny):
        for i in range(grid.nx):
            node = grid.node(slab_idx, i, j)
            if i + 1 < grid.nx:
                asm.add_coupling(node, grid.node(slab_idx, i + 1, j), g_x)
            if j + 1 < grid.ny:
                asm.add_coupling(node, grid.node(slab_idx, i, j + 1), g_y)


def naive_build_liquid(
    grid: ThermalGrid,
    params: ThermalParams,
    flows: tuple,
    model: MicrochannelModel,
) -> RCNetwork:
    """The original cell-by-cell liquid assembly (scalar couplings)."""
    asm = _Assembler(grid.n_nodes)
    capacitance = np.zeros(grid.n_nodes)
    stack = grid.stack
    scale = params.resistance_scale
    coolant = model.coolant
    geom = model.geometry
    p_eff = geom.effective_pitch(model.die_height)
    fluid_fraction = min(1.0, geom.width / p_eff)
    t_cavity = STACK.interlayer_thickness_with_channels

    for die_index, die in enumerate(stack.dies):
        slab_idx = grid.die_slab_index(die_index)
        _naive_die_lateral(asm, grid, slab_idx, die.thickness, params.k_silicon)
        cap = params.silicon_vol_capacity * grid.cell_area * die.thickness
        capacitance[grid.slab_nodes(slab_idx)] += cap

    for cavity_index in range(stack.n_cavities):
        flow = flows[cavity_index]
        slab_idx = grid.cavity_slab_index(cavity_index)
        die_below = cavity_index - 1 if cavity_index > 0 else None
        die_above = cavity_index if cavity_index < stack.n_dies else None

        h_eff = model.effective_h(flow)
        g_film_side = h_eff * grid.cell_area / 2.0 / scale
        g_adv_row = coolant.mass_flow(flow / grid.ny) * coolant.heat_capacity

        fluid_volume = grid.cell_area * geom.height * fluid_fraction
        solid_volume = grid.cell_area * t_cavity - fluid_volume
        cap = (
            coolant.volumetric_heat_capacity() * fluid_volume
            + params.interlayer_vol_capacity * max(solid_volume, 0.0)
        )
        capacitance[grid.slab_nodes(slab_idx)] += cap

        r_up = {}
        r_down = {}
        if die_below is not None:
            t_d = stack.dies[die_below].thickness
            r_up[die_below] = _die_half_resistance(grid, t_d, params) + _beol_resistance(
                grid, params, scale
            )
        if die_above is not None:
            t_d = stack.dies[die_above].thickness
            r_down[die_above] = _die_half_resistance(grid, t_d, params)

        tsv_mask = None
        tsv_g = 0.0
        wall_g = 0.0
        if die_below is not None and die_above is not None:
            tsv_mask = _tsv_mask(grid, die_below)
            phi = _tsv_fill_fraction(grid, die_below)
            k_wall = (1.0 - fluid_fraction) * params.interlayer_conductivity
            k_tsv = phi * params.tsv_conductivity + k_wall
            tsv_g = k_tsv * grid.cell_area / t_cavity
            wall_g = k_wall * grid.cell_area / t_cavity

        for j in range(grid.ny):
            for i in range(grid.nx):
                fluid = grid.node(slab_idx, i, j)
                upstream = grid.node(slab_idx, i - 1, j) if i > 0 else None
                asm.add_advection(fluid, upstream, g_adv_row, params.inlet_temperature)

                if die_below is not None:
                    below = grid.node(grid.die_slab_index(die_below), i, j)
                    g = _series(r_up[die_below], 1.0 / g_film_side)
                    asm.add_coupling(fluid, below, g)
                if die_above is not None:
                    above = grid.node(grid.die_slab_index(die_above), i, j)
                    g = _series(r_down[die_above], 1.0 / g_film_side)
                    asm.add_coupling(fluid, above, g)
                if die_below is not None and die_above is not None:
                    below = grid.node(grid.die_slab_index(die_below), i, j)
                    above = grid.node(grid.die_slab_index(die_above), i, j)
                    g_solid = tsv_g if tsv_mask is not None and tsv_mask[j, i] else wall_g
                    if g_solid > 0.0:
                        r_total = (
                            _die_half_resistance(grid, stack.dies[die_below].thickness, params)
                            + _beol_resistance(grid, params, scale)
                            + 1.0 / g_solid
                            + _die_half_resistance(grid, stack.dies[die_above].thickness, params)
                        )
                        asm.add_coupling(below, above, 1.0 / r_total)

    return RCNetwork(
        conductance=asm.to_csr(),
        capacitance=capacitance,
        boundary=asm.boundary,
        grid=grid,
        cavity_flows=flows,
    )


def naive_build_air(grid: ThermalGrid, params: ThermalParams, package: AirPackage) -> RCNetwork:
    """The original cell-by-cell air assembly (scalar couplings)."""
    asm = _Assembler(grid.n_nodes)
    capacitance = np.zeros(grid.n_nodes)
    stack = grid.stack
    scale = params.air_resistance_scale

    for die_index, die in enumerate(stack.dies):
        slab_idx = grid.die_slab_index(die_index)
        _naive_die_lateral(asm, grid, slab_idx, die.thickness, params.k_silicon)
        cap = params.silicon_vol_capacity * grid.cell_area * die.thickness
        capacitance[grid.slab_nodes(slab_idx)] += cap

    for slab_idx, slab in enumerate(grid.slabs):
        if slab.kind is not SlabKind.INTERFACE:
            continue
        die_below = slab.cavity_index
        die_above = die_below + 1
        t_if = slab.thickness
        cap = params.interlayer_vol_capacity * grid.cell_area * t_if
        capacitance[grid.slab_nodes(slab_idx)] += cap
        tsv_mask = _tsv_mask(grid, die_below)
        phi = _tsv_fill_fraction(grid, die_below)
        k_plain = params.interlayer_conductivity
        k_tsv = phi * params.tsv_conductivity + (1.0 - phi) * k_plain
        r_below_half = (
            _die_half_resistance(grid, stack.dies[die_below].thickness, params)
            + _beol_resistance(grid, params, scale)
        )
        r_above_half = _die_half_resistance(grid, stack.dies[die_above].thickness, params)
        for j in range(grid.ny):
            for i in range(grid.nx):
                node_if = grid.node(slab_idx, i, j)
                below = grid.node(grid.die_slab_index(die_below), i, j)
                above = grid.node(grid.die_slab_index(die_above), i, j)
                k_cell = k_tsv if tsv_mask[j, i] else k_plain
                r_half_if = (t_if / 2.0) / (k_cell * grid.cell_area)
                asm.add_coupling(node_if, below, _series(r_below_half, r_half_if))
                asm.add_coupling(node_if, above, _series(r_above_half, r_half_if))

    top_die = stack.n_dies - 1
    top_slab = grid.die_slab_index(top_die)
    t_top = stack.dies[top_die].thickness
    r_cell_to_spreader = (
        _die_half_resistance(grid, t_top, params)
        + _beol_resistance(grid, params, scale)
        + package.tim_resistance_area * scale / grid.cell_area
    )
    for j in range(grid.ny):
        for i in range(grid.nx):
            asm.add_coupling(
                grid.node(top_slab, i, j), grid.spreader_node, 1.0 / r_cell_to_spreader
            )
    asm.add_coupling(grid.spreader_node, grid.sink_node, 1.0 / package.spreader_resistance)
    asm.add_to_boundary(grid.sink_node, 1.0 / package.sink_resistance, package.ambient)
    capacitance[grid.spreader_node] += package.spreader_capacitance
    capacitance[grid.sink_node] += package.sink_capacitance

    return RCNetwork(
        conductance=asm.to_csr(),
        capacitance=capacitance,
        boundary=asm.boundary,
        grid=grid,
        cavity_flows=(),
    )
