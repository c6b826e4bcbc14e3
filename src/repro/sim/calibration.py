"""Calibration sweeps that produced the default resistance scales.

The paper does not state every resistance of its thermal model, so two
knobs are calibrated to its published operating points:

* ``resistance_scale`` — scales the BEOL + convective-film resistances
  of the liquid path so the hottest Table II workload (Web-high,
  ~93 % utilization) sits *just below* the 80 degC target at the
  maximum pump setting and near 90 degC at the minimum, reproducing
  Figure 5's 70-90 degC operating band;
* ``air_resistance_scale`` — scales the BEOL + TIM resistances of the
  air path so the same workload reaches the high-80s on the air-cooled
  2-layer stack (Figure 6's hot-spot regime).

Run :func:`calibrate_liquid_scale` / :func:`calibrate_air_scale` to
re-derive the defaults after changing any physical parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.geometry.stack import CoolingKind
from repro.power.components import PowerModel
from repro.sim.system import ThermalSystem
from repro.thermal.rc_network import ThermalParams

#: Web-high's Table II utilization, the calibration workload.
_CAL_UTILIZATION = 0.9287

#: Web-high's memory intensity (most memory-intensive workload).
_CAL_MEMORY_INTENSITY = 1.0


@dataclass(frozen=True)
class CalibrationTargets:
    """Temperatures the calibration drives the model towards."""

    liquid_tmax_at_max_flow: float = 77.7
    air_tmax: float = 85.1
    tolerance: float = 0.25


def _liquid_tmax(scale: float, n_layers: int, setting_index: int) -> float:
    params = ThermalParams(resistance_scale=scale)
    system = ThermalSystem(n_layers, CoolingKind.LIQUID, params=params)
    model = PowerModel(system.stack)
    return system.steady_tmax(
        model,
        _CAL_UTILIZATION,
        setting_index=setting_index,
        memory_intensity=_CAL_MEMORY_INTENSITY,
    )


def _air_tmax(scale: float, n_layers: int) -> float:
    params = ThermalParams(air_resistance_scale=scale)
    system = ThermalSystem(n_layers, CoolingKind.AIR, params=params)
    model = PowerModel(system.stack)
    return system.steady_tmax(
        model, _CAL_UTILIZATION, memory_intensity=_CAL_MEMORY_INTENSITY
    )


def _bisect(fn, target: float, lo: float, hi: float, tolerance: float, iters: int = 40) -> float:
    """Find scale with fn(scale) ~= target; fn must be increasing."""
    f_lo = fn(lo)
    f_hi = fn(hi)
    if not f_lo <= target <= f_hi:
        raise ConfigurationError(
            f"target {target} outside achievable range [{f_lo:.1f}, {f_hi:.1f}]"
        )
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if abs(f_mid - target) <= tolerance:
            return mid
        if f_mid < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def calibrate_liquid_scale(
    n_layers: int = 2,
    targets: CalibrationTargets = CalibrationTargets(),
    lo: float = 1.0,
    hi: float = 12.0,
) -> float:
    """Derive ``resistance_scale``: Web-high at max flow hits the target.

    The returned value reproduces ``DEFAULT_RESISTANCE_SCALE`` (4.5)
    for the 2-layer stack with the shipped physical parameters.
    """
    max_setting = ThermalSystem(n_layers, CoolingKind.LIQUID).pump.n_settings - 1
    return _bisect(
        lambda s: _liquid_tmax(s, n_layers, max_setting),
        targets.liquid_tmax_at_max_flow,
        lo,
        hi,
        targets.tolerance,
    )


def calibrate_air_scale(
    n_layers: int = 2,
    targets: CalibrationTargets = CalibrationTargets(),
    lo: float = 0.5,
    hi: float = 8.0,
) -> float:
    """Derive ``air_resistance_scale``: Web-high in the hot-spot regime.

    The returned value reproduces ``DEFAULT_AIR_RESISTANCE_SCALE`` (3.0)
    for the 2-layer stack with the shipped physical parameters.
    """
    return _bisect(
        lambda s: _air_tmax(s, n_layers),
        targets.air_tmax,
        lo,
        hi,
        targets.tolerance,
    )
