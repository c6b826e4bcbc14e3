"""Temperature-dependent leakage power (Section V, after Su et al.).

The paper accounts "for the temperature effects on leakage power"
using the polynomial model of Su et al. [21]. We implement that shape:
a quadratic polynomial in the temperature delta from a reference point,

    P_leak(T) = P_ref * (1 + a*(T - T_ref) + b*(T - T_ref)^2)

with coefficients giving the usual ~1.6-1.7x growth over a 30 K rise for
a 90 nm process. The base (reference) leakage of each floorplan unit is
proportional to its area.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelError
from repro.geometry.floorplan import UnitKind


@dataclass(frozen=True)
class LeakageModel:
    """Polynomial leakage model with per-unit-kind base densities.

    Attributes
    ----------
    reference_temperature:
        T_ref, degC, at which the base densities apply.
    linear, quadratic:
        Polynomial coefficients a (1/K) and b (1/K^2).
    core_density, l2_density, crossbar_density, misc_density:
        Base leakage per area at T_ref, W/m^2. Defaults give ~0.5 W per
        10 mm^2 core and ~0.3 W per 19 mm^2 L2 bank at 60 degC, i.e.
        roughly 20 % of chip power at the operating point — consistent
        with a 90 nm process (assumption: the paper gives no densities).
    """

    reference_temperature: float = 60.0
    linear: float = 0.016
    quadratic: float = 2.0e-4
    core_density: float = 5.0e4
    l2_density: float = 1.6e4
    crossbar_density: float = 1.0e4
    misc_density: float = 0.8e4

    def __post_init__(self) -> None:
        if self.linear < 0.0 or self.quadratic < 0.0:
            raise ModelError("leakage polynomial coefficients must be non-negative")

    def density_for(self, kind: UnitKind) -> float:
        """Base leakage density (W/m^2) for a unit kind."""
        if kind is UnitKind.CORE:
            return self.core_density
        if kind is UnitKind.L2:
            return self.l2_density
        if kind is UnitKind.CROSSBAR:
            return self.crossbar_density
        return self.misc_density

    def temperature_factor(self, temperature: float) -> float:
        """Multiplier over the base leakage at a given temperature.

        Clamped below at 0.1x so extrapolation to very low temperatures
        stays physical (leakage never vanishes entirely).
        """
        dt = temperature - self.reference_temperature
        factor = 1.0 + self.linear * dt + self.quadratic * dt * dt
        return max(factor, 0.1)

    def unit_leakage(self, kind: UnitKind, area: float, temperature: float, asleep: bool = False) -> float:
        """Leakage power (W) of one unit at its current temperature.

        A sleeping core is power-gated; its residual leakage is part of
        the paper's 0.02 W sleep power and not added here.
        """
        if area <= 0.0:
            raise ModelError("unit area must be positive")
        if asleep and kind is UnitKind.CORE:
            return 0.0
        return self.density_for(kind) * area * self.temperature_factor(temperature)
