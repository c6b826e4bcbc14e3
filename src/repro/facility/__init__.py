"""Facility cooling tier: CDU, chiller, cooling tower, closed loop.

The datacenter plant the ROADMAP's first open item asks for. Facility
*loops* are registered components — importing
:mod:`repro.facility.loop` below runs their registrations, the same
at-import idiom workloads and scheduler policies use.
"""

from repro.facility.components import (
    CduHeatExchanger,
    Chiller,
    CoolingTower,
    PumpCurve,
)
from repro.facility.coolant import water_density, water_heat_capacity
from repro.facility.loop import ClosedLoopFacility, FacilityModel, FacilityState

__all__ = [
    "CduHeatExchanger",
    "Chiller",
    "CoolingTower",
    "PumpCurve",
    "water_density",
    "water_heat_capacity",
    "ClosedLoopFacility",
    "FacilityModel",
    "FacilityState",
]
