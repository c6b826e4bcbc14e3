"""Physical constants and the paper's published parameters.

Every number in this module is either a textbook physical constant or a
value printed in the paper (Table I, Table III, Section III/V). Values
are stored in SI units; the original unit from the paper is noted in the
comment next to each constant.

Grouping:

* :class:`MicrochannelConstants` — Table I (microchannel unit-cell model)
* :class:`StackConstants` — Table III (thermal model and floorplan)
* :class:`PowerConstants` — Section V (UltraSPARC T1 power numbers)
* :class:`ControlConstants` — Section IV (sampling, horizons, thresholds)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units

# --- silicon / copper bulk properties (textbook values) -----------------------

SILICON_CONDUCTIVITY = 148.0
"""Thermal conductivity of bulk silicon, W/(m*K)."""

SILICON_VOLUMETRIC_HEAT_CAPACITY = 1.659e6
"""Volumetric heat capacity of silicon, J/(m^3*K) (rho*c_p)."""

COPPER_CONDUCTIVITY = 400.0
"""Thermal conductivity of copper (TSV fill), W/(m*K)."""

WATER_PRANDTL_60C = 3.0
"""Prandtl number of water at ~60 degC (used by the developing-flow
Nusselt correlation; water Pr falls from ~7 at 20 degC to ~3 at 60 degC)."""

WATER_DYNAMIC_VISCOSITY_60C = 4.66e-4
"""Dynamic viscosity of water at ~60 degC, Pa*s."""


@dataclass(frozen=True)
class MicrochannelConstants:
    """Table I — parameters of the microchannel unit-cell model (Eq. 1-7)."""

    r_beol: float = units.k_mm2_per_w(5.333)
    """Thermal resistance of wiring levels (R_th-BEOL), K*m^2/W.
    Paper: 5.333 K*mm^2/W (Eq. 3 with t_B and k_BEOL below)."""

    t_beol: float = units.um(12.0)
    """BEOL (wiring stack) thickness t_B, m. Paper: 12 um."""

    k_beol: float = 2.25
    """Conductivity of wiring levels k_BEOL, W/(m*K). Paper: 2.25."""

    coolant_heat_capacity: float = 4183.0
    """Coolant (water) specific heat capacity c_p, J/(kg*K). Paper: 4183."""

    coolant_density: float = 998.0
    """Coolant (water) density rho, kg/m^3. Paper: 998."""

    flow_rate_min: float = units.litres_per_minute(0.1)
    """Lower end of the per-cavity volumetric flow-rate range, m^3/s.
    Paper: 0.1 l/min per cavity."""

    flow_rate_max: float = units.litres_per_minute(1.0)
    """Upper end of the per-cavity volumetric flow-rate range, m^3/s.
    Paper: 1 l/min per cavity."""

    heat_transfer_coefficient: float = 37132.0
    """Heat transfer coefficient h, W/(m^2*K). Paper: 37132.
    The paper treats h as constant (developed boundary layers); we anchor
    the developing-flow correlation so h(max flow) equals this value."""

    channel_width: float = units.um(50.0)
    """Microchannel width w_c, m. Paper: 50 um."""

    channel_height: float = units.um(100.0)
    """Microchannel height t_c, m. Paper: 100 um."""

    wall_thickness: float = units.um(50.0)
    """Channel wall thickness t_s, m. Paper: 50 um."""

    channel_pitch: float = units.um(100.0)
    """Channel pitch p, m. Paper: 100 um."""

    channels_per_cavity: int = 65
    """Number of microchannels per interlayer cavity. Paper: 65."""


@dataclass(frozen=True)
class StackConstants:
    """Table III — thermal model and floorplan parameters."""

    die_thickness: float = units.mm(0.15)
    """Thickness of one silicon die, m. Paper: 0.15 mm."""

    core_area: float = units.mm2(10.0)
    """Area of one UltraSPARC T1 core, m^2. Paper: 10 mm^2."""

    l2_area: float = units.mm2(19.0)
    """Area of one L2 cache bank, m^2. Paper: 19 mm^2."""

    layer_area: float = units.mm2(115.0)
    """Total area of each layer, m^2. Paper: 115 mm^2."""

    convection_capacitance: float = 140.0
    """Package (air path) convection capacitance, J/K. Paper: 140."""

    convection_resistance: float = 0.1
    """Package (air path) convection resistance, K/W. Paper: 0.1."""

    interlayer_thickness: float = units.mm(0.02)
    """Interlayer material thickness without channels, m. Paper: 0.02 mm."""

    interlayer_thickness_with_channels: float = units.mm(0.4)
    """Interlayer material thickness with channels, m. Paper: 0.4 mm."""

    interlayer_resistivity: float = 0.25
    """Interlayer material thermal resistivity without TSVs, m*K/W.
    Paper: 0.25 mK/W (i.e. conductivity 4 W/(m*K))."""

    tsv_count_per_interface: int = 128
    """TSVs in the crossbar connecting each two layers. Paper: 128."""

    tsv_side: float = units.um(50.0)
    """TSV footprint side length, m. Paper: 50 um x 50 um."""

    tsv_pitch: float = units.um(100.0)
    """Minimum TSV pitch, m. Paper: 100 um."""


@dataclass(frozen=True)
class PowerConstants:
    """Section V — UltraSPARC T1 power model values."""

    core_active_power: float = 3.0
    """Dynamic power of an active core, W. Paper: 3 W."""

    core_idle_power: float = 1.0
    """Dynamic power of an idle (but not sleeping) core, W.
    Not stated in the paper; ~1/3 of active is typical for T1-class
    fine-grain multithreaded cores (assumption). The headline savings
    depend strongly on it: gzip's cooling savings read 54.3 % at 1.0 W
    and 4.4 % at 2.0 W (16x16, 20 s);
    ``repro.experiments.sweeps.idle_power_sweep`` shows only its effect
    on steady T_max at low utilization."""

    core_sleep_power: float = 0.02
    """Power of a core in the DPM sleep state, W. Paper: 0.02 W."""

    l2_power: float = 1.28
    """Power of one L2 cache bank, W. Paper: 1.28 W (CACTI 4.0)."""

    crossbar_peak_power: float = 1.5
    """Peak crossbar power, W, scaled by active cores and memory accesses.
    Not stated in the paper; an assumed value."""

    dpm_timeout: float = 0.2
    """DPM fixed-timeout before a core is put to sleep, s. Paper: 200 ms."""


@dataclass(frozen=True)
class ControlConstants:
    """Section IV — controller and scheduler parameters."""

    sampling_interval: float = 0.1
    """Temperature sampling interval, s. Paper: 100 ms."""

    forecast_horizon: float = 0.5
    """Forecast lead time, s. Paper: 500 ms."""

    target_temperature: float = 80.0
    """Target operating temperature, degC. Paper: 80 degC."""

    hotspot_threshold: float = 85.0
    """Hot-spot / migration threshold temperature, degC. Paper: 85 degC."""

    hysteresis: float = 2.0
    """Down-switch hysteresis on the flow LUT, K. Paper: 2 degC."""

    pump_transition_time: float = 0.3
    """Pump flow-rate transition time, s. Paper: 250-300 ms."""

    spatial_gradient_threshold: float = 15.0
    """Spatial-gradient magnitude counted as 'large', K. Paper: 15 degC."""

    thermal_cycle_threshold: float = 20.0
    """Thermal-cycle magnitude counted as 'large', K. Paper: 20 degC."""


MICROCHANNEL = MicrochannelConstants()
"""Module-level singleton with Table I values."""

STACK = StackConstants()
"""Module-level singleton with Table III values."""

POWER = PowerConstants()
"""Module-level singleton with Section V power values."""

CONTROL = ControlConstants()
"""Module-level singleton with Section IV controller values."""
