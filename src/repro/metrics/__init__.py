"""Evaluation metrics for Figures 6-8."""

from repro.metrics.energy import EnergyBreakdown
from repro.metrics.thermal_metrics import (
    count_thermal_cycles,
    hotspot_frequency,
    spatial_gradient_frequency,
    thermal_cycle_frequency,
)

__all__ = [
    "hotspot_frequency",
    "spatial_gradient_frequency",
    "thermal_cycle_frequency",
    "count_thermal_cycles",
    "EnergyBreakdown",
]
