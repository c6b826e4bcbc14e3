"""The closed facility cooling loop and its registry entries.

This is the tier the ROADMAP calls the *facility model*: the chip's
rejected heat no longer vanishes at the microchannel outlet but flows
through a CDU plate heat exchanger into the facility water loop, then
through either a chiller or a free-cooling economizer bypass to an
evaporative cooling tower. Per control interval the loop integrates a
well-mixed secondary-loop energy balance

    M * cp * dT_loop/dt = Q_chip - Q_cdu

so the chip's coolant *inlet temperature becomes an output* of the
room energy balance (the loop temperature) instead of the constant
``ThermalParams.inlet_temperature``, and every watt of cooling power —
chiller compressor, tower fans, facility pumps — is accounted against
the IT load for PUE.

Registered facility keys:

* ``none`` (default) — no facility: the classic fixed-inlet run,
  byte-identical to every pre-facility simulation.
* ``closed-loop`` — the CDU -> chiller/economizer -> cooling tower
  plant above, with a setpoint-holding CDU valve: while the exchanger
  has capacity the loop converges to ``supply_setpoint_c`` (hot-water
  cooling at the paper's 60 degC keeps the chiller off entirely);
  when demand exceeds capacity the loop floats up to the natural
  balance point.

All component physics lives in :mod:`repro.facility.components`; this
module owns only the state integration and the registry schema. The
model computes *per chip share* and multiplies by ``racks *
chips_per_rack`` on emission, so PUE/WUE are scale-invariant while
total cooling power reports at room scale (the headline scenario:
2,250 racks x 400 kW).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

from repro import telemetry
from repro.errors import ModelError
from repro.facility.components import CduHeatExchanger, Chiller, CoolingTower, PumpCurve
from repro.facility.coolant import water_density, water_heat_capacity
from repro.registry import FacilityContext, ParamSpec, register_facility

__all__ = ["FacilityModel", "FacilityState", "ClosedLoopFacility"]

#: Secondary loop temperatures are kept inside the coolant property
#: fits' validity band with a margin; hitting a clamp means the plant
#: is catastrophically under/over-sized for the load.
_LOOP_TEMP_MIN = 2.0
_LOOP_TEMP_MAX = 98.0

_INTERVALS = telemetry.counter("facility.intervals")  # mode=free|chiller
_LOOP_TEMPERATURE = telemetry.gauge("facility.loop_temperature_c")


@dataclass(frozen=True)
class FacilityState:
    """One control interval's facility outputs.

    Temperatures are per-chip (identical across the aggregated racks);
    heat rates, powers, and water use are at facility aggregate scale.
    """

    #: Chip coolant inlet temperature for the *next* interval, degC.
    inlet_temperature: float
    #: Secondary (chip) loop bulk temperature after this interval, degC.
    loop_temperature: float
    #: Heat added to the secondary loop by the chips this interval, W.
    chip_heat: float
    #: Heat moved secondary -> facility water by the CDU, W.
    cdu_heat: float
    #: Chiller compressor electrical power, W (0 under free cooling).
    chiller_power: float
    #: Cooling tower fan electrical power, W.
    tower_fan_power: float
    #: Facility-side (secondary + primary) pump electrical power, W.
    pump_power: float
    #: Tower make-up water consumption, kg/s.
    water_use: float
    #: True when the economizer bypassed the chiller this interval.
    free_cooling: bool

    @property
    def cooling_power(self) -> float:
        """Total facility cooling power this interval, W.

        Chiller + tower fans + facility pumps. The chip-level
        microchannel pump is accounted separately by the engine
        (``SimulationResult.pump_energy``) and added at PUE time.
        """
        return self.chiller_power + self.tower_fan_power + self.pump_power


@runtime_checkable
class FacilityModel(Protocol):
    """What a registered facility loop must provide.

    ``advance`` consumes one control interval: ``chip_heat`` is the
    heat one chip's coolant picked up (W, from the thermal network's
    advection rows), ``chip_power``/``chip_pump_power`` the chip's IT
    and pump draw (W). It returns the interval's
    :class:`FacilityState`, whose ``inlet_temperature`` the engine
    feeds back into the next interval's boundary conditions.
    Determinism contract: equal construction parameters and equal
    ``advance`` call sequences must yield identical states.
    """

    scale: float

    @property
    def inlet_temperature(self) -> float:
        """Chip coolant inlet for the upcoming interval, degC."""
        ...

    def advance(
        self, dt: float, chip_heat: float, chip_power: float, chip_pump_power: float
    ) -> FacilityState:
        """Integrate the facility over one control interval."""
        ...


class ClosedLoopFacility:
    """CDU -> chiller/economizer -> cooling tower closed loop.

    State is the well-mixed secondary loop temperature (= chip inlet).
    Each ``advance`` step, in order: the chips heat the loop; the CDU
    valve computes the transfer needed to steer the loop toward the
    supply setpoint over ``control_tau`` seconds and throttles it to
    the exchanger's e-NTU capacity; the removed heat is lifted to the
    tower by the chiller — or flows straight through when tower water
    at ``wet_bulb + approach`` is cold enough to serve the setpoint
    directly (free cooling).
    """

    def __init__(
        self,
        *,
        scale: float,
        initial_inlet_temperature: float,
        loop_volume_l: float,
        secondary_flow_lpm: float,
        primary_flow_lpm: float,
        cdu: CduHeatExchanger,
        chiller: Chiller,
        tower: CoolingTower,
        secondary_pump: PumpCurve,
        primary_pump: PumpCurve,
        supply_setpoint_c: float,
        chilled_water_c: float,
        wet_bulb_c: float,
        free_cooling_margin_k: float,
        control_tau_s: float,
    ) -> None:
        if scale < 1.0:
            raise ModelError(f"facility scale must be >= 1 chip, got {scale}")
        if not _LOOP_TEMP_MIN <= initial_inlet_temperature <= _LOOP_TEMP_MAX:
            raise ModelError(
                "closed-loop facility needs an initial inlet temperature in "
                f"[{_LOOP_TEMP_MIN}, {_LOOP_TEMP_MAX}] degC (liquid water), "
                f"got {initial_inlet_temperature} degC"
            )
        self.scale = float(scale)
        self.loop_volume_m3 = loop_volume_l / 1000.0
        self.secondary_flow = secondary_flow_lpm / 60000.0
        self.primary_flow = primary_flow_lpm / 60000.0
        self.cdu = cdu
        self.chiller = chiller
        self.tower = tower
        self.secondary_pump = secondary_pump
        self.primary_pump = primary_pump
        self.supply_setpoint = supply_setpoint_c
        self.chilled_water = chilled_water_c
        self.wet_bulb = wet_bulb_c
        self.free_cooling_margin = free_cooling_margin_k
        self.control_tau = control_tau_s
        self._loop_temperature = float(initial_inlet_temperature)

    @property
    def inlet_temperature(self) -> float:
        return self._loop_temperature

    def loop_heat_capacity(self) -> float:
        """Thermal capacity of the secondary loop water, J/K per chip,
        evaluated at the current loop temperature."""
        t = self._loop_temperature
        return self.loop_volume_m3 * water_density(t) * water_heat_capacity(t)

    def advance(
        self, dt: float, chip_heat: float, chip_power: float, chip_pump_power: float
    ) -> FacilityState:
        with telemetry.span("facility.advance", dt=dt) as sp:
            state = self._advance(dt, chip_heat)
            sp.set_attrs(
                inlet=state.inlet_temperature, free_cooling=state.free_cooling
            )
        _INTERVALS.inc(mode="free" if state.free_cooling else "chiller")
        _LOOP_TEMPERATURE.set(state.loop_temperature)
        return state

    def _advance(self, dt: float, chip_heat: float) -> FacilityState:
        if dt <= 0.0:
            raise ModelError(f"facility interval must be positive, got {dt}")
        t_loop = self._loop_temperature
        cp_sec = water_heat_capacity(t_loop)
        rho_sec = water_density(t_loop)
        c_hot = self.secondary_flow * rho_sec * cp_sec

        # The chips heat the secondary stream from the loop temperature
        # to the CDU's hot-side inlet.
        t_return = t_loop + chip_heat / c_hot

        # Economizer decision: tower water is usable directly when it
        # undercuts the setpoint by the configured margin.
        t_tower_supply = self.tower.supply_temperature(self.wet_bulb)
        free_cooling = (
            t_tower_supply + self.free_cooling_margin <= self.supply_setpoint
        )
        t_primary = t_tower_supply if free_cooling else self.chilled_water

        cp_prim = water_heat_capacity(t_primary)
        c_cold = self.primary_flow * water_density(t_primary) * cp_prim
        q_capacity = self.cdu.max_heat_transfer(t_return, t_primary, c_hot, c_cold)

        # CDU valve: remove the chip heat plus whatever drives the loop
        # to the setpoint over one control time constant, throttled to
        # the exchanger's capacity. Exactly this q_cdu enters the tank
        # balance below, so chip heat == CDU heat + loop storage holds
        # to machine precision whatever the valve does.
        c_loop = self.loop_heat_capacity()
        q_wanted = chip_heat + c_loop * (t_loop - self.supply_setpoint) / self.control_tau
        q_cdu = min(max(q_wanted, 0.0), q_capacity)

        t_new = t_loop + dt * (chip_heat - q_cdu) / c_loop
        t_new = min(max(t_new, _LOOP_TEMP_MIN), _LOOP_TEMP_MAX)
        self._loop_temperature = t_new

        # Lift to ambient: straight to the tower under free cooling,
        # through the chiller (which adds its compressor work to the
        # rejected stream) otherwise.
        if free_cooling:
            chiller_power = 0.0
            q_reject = q_cdu
        else:
            chiller_power = self.chiller.power(
                q_cdu, self.chilled_water, t_tower_supply
            )
            q_reject = q_cdu + chiller_power

        fan_power = self.tower.fan_power(q_reject)
        water = self.tower.water_use(q_reject)
        pump_power = self.secondary_pump.electrical_power(
            self.secondary_flow, density=rho_sec
        ) + self.primary_pump.electrical_power(self.primary_flow)

        s = self.scale
        return FacilityState(
            inlet_temperature=t_new,
            loop_temperature=t_new,
            chip_heat=chip_heat * s,
            cdu_heat=q_cdu * s,
            chiller_power=chiller_power * s,
            tower_fan_power=fan_power * s,
            pump_power=pump_power * s,
            water_use=water * s,
            free_cooling=free_cooling,
        )


# --- registry entries ------------------------------------------------------


@register_facility(
    "none",
    params=(),
    aliases=("fixed-inlet",),
    description="No facility loop (the default): coolant arrives at the "
    "constant ThermalParams.inlet_temperature and rejected heat leaves "
    "the model at the outlet — byte-identical to pre-facility runs",
    traits={"closed_loop": False},
)
def _build_none(ctx):
    return None


@register_facility(
    "closed-loop",
    params=(
        ParamSpec(
            "racks", "int", default=1,
            doc="racks aggregated behind the facility plant",
            minimum=1,
        ),
        ParamSpec(
            "chips_per_rack", "int", default=1,
            doc="simulated-chip equivalents per rack (the modeled chip "
                "is replicated racks * chips_per_rack times)",
            minimum=1,
        ),
        ParamSpec(
            "loop_volume_l", "float", default=0.5,
            doc="secondary loop water volume per chip share, liters "
                "(sets the loop thermal inertia)",
            minimum=1e-3,
        ),
        ParamSpec(
            "secondary_flow_lpm", "float", default=1.0,
            doc="secondary (chip-side CDU) water flow per chip share, L/min",
            minimum=1e-3,
        ),
        ParamSpec(
            "primary_flow_lpm", "float", default=2.0,
            doc="primary (facility-side CDU) water flow per chip share, L/min",
            minimum=1e-3,
        ),
        ParamSpec(
            "cdu_ua", "float", default=25.0,
            doc="CDU plate heat-exchanger conductance UA per chip share, W/K",
            minimum=1e-6,
        ),
        ParamSpec(
            "supply_setpoint_c", "float", default=60.0,
            doc="secondary supply (chip inlet) setpoint the CDU valve "
                "steers toward, degC — 60 is the paper's hot-water "
                "operating point",
            minimum=_LOOP_TEMP_MIN, maximum=_LOOP_TEMP_MAX,
        ),
        ParamSpec(
            "chilled_water_c", "float", default=18.0,
            doc="chilled-water temperature the chiller supplies when the "
                "economizer cannot, degC",
            minimum=_LOOP_TEMP_MIN, maximum=_LOOP_TEMP_MAX,
        ),
        ParamSpec(
            "wet_bulb_c", "float", default=22.0,
            doc="ambient wet-bulb temperature, degC",
            minimum=-20.0, maximum=45.0,
        ),
        ParamSpec(
            "tower_approach_k", "float", default=4.0,
            doc="cooling tower approach to wet-bulb, K",
            minimum=0.5,
        ),
        ParamSpec(
            "free_cooling_margin_k", "float", default=2.0,
            doc="tower supply must undercut the setpoint by this margin "
                "for the economizer to bypass the chiller, K",
            minimum=0.0,
        ),
        ParamSpec(
            "chiller_carnot_fraction", "float", default=0.5,
            doc="chiller COP as a fraction of the Carnot limit",
            minimum=0.05, maximum=1.0,
        ),
        ParamSpec(
            "tower_fan_fraction", "float", default=0.015,
            doc="tower fan power per watt of heat rejected",
            minimum=0.0, maximum=0.5,
        ),
        ParamSpec(
            "pump_head_m", "float", default=10.0,
            doc="facility pump design head, m of water",
            minimum=0.1,
        ),
        ParamSpec(
            "pump_efficiency", "float", default=0.7,
            doc="facility pump wire-to-water efficiency",
            minimum=0.05, maximum=1.0,
        ),
        ParamSpec(
            "cycles_of_concentration", "float", default=4.0,
            doc="tower water cycles of concentration (sets blowdown)",
            minimum=1.5,
        ),
        ParamSpec(
            "control_tau_s", "float", default=2.0,
            doc="CDU valve control time constant steering the loop to "
                "the setpoint, s",
            minimum=1e-3,
        ),
    ),
    aliases=("cdu-chiller-tower",),
    description="Closed CDU -> chiller/economizer -> cooling tower loop: "
    "chip inlet temperature becomes the simulated secondary loop "
    "temperature and PUE/WUE/total-cooling-power are computed from the "
    "plant energy balance",
    traits={"closed_loop": True, "free_cooling": True},
)
def _build_closed_loop(
    ctx: Optional[FacilityContext],
    racks=1,
    chips_per_rack=1,
    loop_volume_l=0.5,
    secondary_flow_lpm=1.0,
    primary_flow_lpm=2.0,
    cdu_ua=25.0,
    supply_setpoint_c=60.0,
    chilled_water_c=18.0,
    wet_bulb_c=22.0,
    tower_approach_k=4.0,
    free_cooling_margin_k=2.0,
    chiller_carnot_fraction=0.5,
    tower_fan_fraction=0.015,
    pump_head_m=10.0,
    pump_efficiency=0.7,
    cycles_of_concentration=4.0,
    control_tau_s=2.0,
):
    initial = ctx.initial_inlet_temperature if ctx is not None else 60.0
    secondary_flow = secondary_flow_lpm / 60000.0
    primary_flow = primary_flow_lpm / 60000.0
    return ClosedLoopFacility(
        scale=float(racks * chips_per_rack),
        initial_inlet_temperature=initial,
        loop_volume_l=loop_volume_l,
        secondary_flow_lpm=secondary_flow_lpm,
        primary_flow_lpm=primary_flow_lpm,
        cdu=CduHeatExchanger(ua=cdu_ua),
        chiller=Chiller(carnot_fraction=chiller_carnot_fraction),
        tower=CoolingTower(
            approach=tower_approach_k,
            fan_power_fraction=tower_fan_fraction,
            cycles_of_concentration=cycles_of_concentration,
        ),
        secondary_pump=PumpCurve(
            design_flow=secondary_flow,
            design_head=pump_head_m,
            efficiency=pump_efficiency,
        ),
        primary_pump=PumpCurve(
            design_flow=primary_flow,
            design_head=pump_head_m,
            efficiency=pump_efficiency,
        ),
        supply_setpoint_c=supply_setpoint_c,
        chilled_water_c=chilled_water_c,
        wet_bulb_c=wet_bulb_c,
        free_cooling_margin_k=free_cooling_margin_k,
        control_tau_s=control_tau_s,
    )
