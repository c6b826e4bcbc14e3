"""Unit conversion helpers.

The library uses SI units internally everywhere:

* lengths in metres, areas in m^2, volumes in m^3
* temperatures in degrees Celsius (differences in kelvin)
* power in watts, energy in joules
* volumetric flow rates in m^3/s
* time in seconds

The paper quotes flow rates in litres/hour (pump), litres/minute and
millilitres/minute (per cavity), and lengths in micrometres and
millimetres; these helpers convert between the paper's units and SI so
the conversion factors live in exactly one place.
"""

from __future__ import annotations

# --- length ---------------------------------------------------------------

MICROMETRE = 1.0e-6
MILLIMETRE = 1.0e-3


def um(value: float) -> float:
    """Convert micrometres to metres."""
    return value * MICROMETRE


def mm(value: float) -> float:
    """Convert millimetres to metres."""
    return value * MILLIMETRE


def mm2(value: float) -> float:
    """Convert square millimetres to square metres."""
    return value * MILLIMETRE**2


# --- volumetric flow rate ---------------------------------------------------

LITRE = 1.0e-3  # m^3
MILLILITRE = 1.0e-6  # m^3
MINUTE = 60.0  # s
HOUR = 3600.0  # s


def litres_per_hour(value: float) -> float:
    """Convert l/h (the pump datasheet unit) to m^3/s."""
    return value * LITRE / HOUR


def litres_per_minute(value: float) -> float:
    """Convert l/min (Table I's per-cavity unit) to m^3/s."""
    return value * LITRE / MINUTE


def ml_per_minute(value: float) -> float:
    """Convert ml/min (Figure 3/5's per-cavity unit) to m^3/s."""
    return value * MILLILITRE / MINUTE


def to_litres_per_hour(value_m3s: float) -> float:
    """Convert m^3/s to l/h."""
    return value_m3s * HOUR / LITRE


def to_ml_per_minute(value_m3s: float) -> float:
    """Convert m^3/s to ml/min."""
    return value_m3s * MINUTE / MILLILITRE


# --- per-area thermal resistance ---------------------------------------------


def k_mm2_per_w(value: float) -> float:
    """Convert K*mm^2/W (Table I's R_BEOL unit) to K*m^2/W."""
    return value * MILLIMETRE**2


# --- time ---------------------------------------------------------------------


def to_ms(value_s: float) -> float:
    """Convert seconds to milliseconds."""
    return value_s * 1.0e3
