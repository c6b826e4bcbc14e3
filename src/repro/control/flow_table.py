"""The temperature-indexed flow-rate look-up table (Section IV, Figure 5).

Offline characterization sweeps workload intensity (uniform core
utilization) and computes the steady-state maximum temperature at every
pump setting, with the temperature-dependent leakage resolved
self-consistently (in unit space, one unit-response solve per setting).
From that matrix the table answers the controller's question: *given
the predicted maximum temperature (observed while the pump runs at some
setting), which is the minimum setting that keeps the steady state at
or below the 80 degC target?*

Figure 5's semantics in this reproduction (our reading of the figure):
the x axis is the maximum temperature the workload produces at the
*lowest* setting, and the curve gives the minimum per-cavity flow that
cools the same workload below the target. The runtime controller uses the same
characterization, inverted at whatever setting the pump currently runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.constants import CONTROL
from repro.errors import ControlError

SteadyTmaxBatchFn = Callable[[int, np.ndarray], np.ndarray]
"""Batch evaluator: (pump setting index, utilizations) -> T_max array.

One call per setting instead of one per (setting, utilization) point;
:meth:`repro.sim.system.ThermalSystem.steady_tmax_batch` implements it
running every utilization's fixed point on the setting's unit response."""


@dataclass(frozen=True)
class CharacterizationResult:
    """The characterization matrix behind the look-up table.

    Attributes
    ----------
    utilizations:
        The swept workload intensities (fractions, ascending).
    tmax:
        ``tmax[k][u]`` — steady-state maximum temperature at pump
        setting k under utilization ``utilizations[u]``, degC.
    per_cavity_flows:
        The per-cavity flow of each setting, m^3/s (for reporting).
    target:
        The temperature target the table enforces, degC.
    """

    utilizations: np.ndarray
    tmax: np.ndarray
    per_cavity_flows: tuple[float, ...]
    target: float

    def __post_init__(self) -> None:
        if self.tmax.ndim != 2:
            raise ControlError("tmax must be a (settings x utilizations) matrix")
        if self.tmax.shape[1] != len(self.utilizations):
            raise ControlError("tmax columns must match utilizations")
        if len(self.per_cavity_flows) != self.tmax.shape[0]:
            raise ControlError("per_cavity_flows must match tmax rows")
        if not np.all(np.isfinite(self.utilizations)):
            raise ControlError(f"non-finite utilizations {list(self.utilizations)}")
        bad = np.argwhere(~np.isfinite(self.tmax))
        if bad.size:
            k, u = bad[0]
            raise ControlError(
                f"non-finite T_max {self.tmax[k, u]} at setting {k}, "
                f"utilization {self.utilizations[u]}"
            )
        if np.any(np.diff(self.utilizations) <= 0.0):
            raise ControlError("utilizations must be strictly ascending")

    @property
    def n_settings(self) -> int:
        """Number of pump settings characterized."""
        return self.tmax.shape[0]


class FlowRateTable:
    """Temperature-indexed pump-setting look-up (the controller's LUT).

    Built from a :class:`CharacterizationResult`; see
    :meth:`characterize` for the offline sweep.
    """

    def __init__(self, characterization: CharacterizationResult) -> None:
        self.char = characterization
        tmax = characterization.tmax
        # Sanity: hotter at lower settings, hotter under higher load.
        for k in range(characterization.n_settings):
            if np.any(np.diff(tmax[k]) < -1.0e-9):
                raise ControlError(
                    f"T_max must be non-decreasing in utilization (setting {k})"
                )
        for u in range(tmax.shape[1]):
            if np.any(np.diff(tmax[:, u]) > 1.0e-9):
                raise ControlError(
                    "T_max must be non-increasing in the flow setting "
                    f"(utilization index {u})"
                )
        # Per-setting caps are pure functions of the characterization;
        # precompute them so the controller's per-interval lookups
        # (required_setting -> utilization_cap per setting) cost an
        # index instead of an interpolation.
        self._caps = tuple(
            self._compute_utilization_cap(k)
            for k in range(characterization.n_settings)
        )
        # The curves as Python floats for the per-interval end tests and
        # slopes (the same IEEE values and operations as the arrays).
        self._utils = characterization.utilizations.tolist()
        self._temps = characterization.tmax.tolist()

    @classmethod
    def characterize(
        cls,
        steady_tmax_batch: SteadyTmaxBatchFn,
        n_settings: int,
        per_cavity_flows: Sequence[float] = (),
        utilizations: Sequence[float] = tuple(np.linspace(0.0, 1.0, 11)),
        target: float = CONTROL.target_temperature,
    ) -> "FlowRateTable":
        """Run the offline characterization sweep and build the table:
        one ``steady_tmax_batch`` call per setting, evaluating every
        utilization at once."""
        if n_settings <= 0:
            raise ControlError("characterize needs a positive n_settings")
        utils = np.asarray(sorted(set(float(u) for u in utilizations)))
        if len(utils) < 2:
            raise ControlError("need at least two utilization points")
        tmax = np.empty((n_settings, len(utils)))
        for k in range(n_settings):
            row = np.asarray(steady_tmax_batch(k, utils), dtype=float)
            if row.shape != utils.shape:
                raise ControlError(
                    f"batch evaluator returned shape {row.shape}, "
                    f"expected {utils.shape}"
                )
            tmax[k] = row
        return cls(
            CharacterizationResult(
                utilizations=utils,
                tmax=tmax,
                per_cavity_flows=tuple(float(f) for f in per_cavity_flows),
                target=target,
            )
        )

    # --- inversion ------------------------------------------------------------

    def utilization_from_temperature(self, temperature: float, setting: int) -> float:
        """Infer workload intensity from an observed T_max at a setting.

        Interpolates the characterized curve; beyond its ends the value
        extrapolates linearly (then clamps at zero below).
        """
        self._check_setting(setting)
        utils = self._utils
        temps = self._temps[setting]
        if temperature <= temps[0]:
            slope = _end_slope(temps, utils, left=True)
            return max(0.0, float(utils[0] + (temperature - temps[0]) * slope))
        if temperature >= temps[-1]:
            slope = _end_slope(temps, utils, left=False)
            return float(utils[-1] + (temperature - temps[-1]) * slope)
        return float(
            np.interp(temperature, self.char.tmax[setting], self.char.utilizations)
        )

    def utilization_cap(self, setting: int) -> float:
        """Highest utilization a setting can hold at/below the target.

        ``inf`` when the setting holds the whole sweep below target;
        0 when it cannot hold even the idle point. Precomputed at
        construction (the characterization is immutable).
        """
        self._check_setting(setting)
        return self._caps[setting]

    def _compute_utilization_cap(self, setting: int) -> float:
        temps = self.char.tmax[setting]
        utils = self.char.utilizations
        if temps[-1] <= self.char.target:
            return math.inf
        if temps[0] > self.char.target:
            return 0.0
        return float(np.interp(self.char.target, temps, utils))

    def required_setting_for_utilization(self, utilization: float) -> int:
        """Minimum setting holding a workload intensity below target.

        Saturates at the maximum setting when none suffices (the caller
        should treat a saturated answer as a thermal-capacity warning).
        """
        for k, cap in enumerate(self._caps):
            if cap >= utilization:
                return k
        return len(self._caps) - 1

    def required_setting(self, predicted_tmax: float, observed_setting: int) -> int:
        """The LUT lookup: minimum setting for a predicted T_max.

        ``observed_setting`` is the setting the pump was running while
        the prediction's history was collected, so the temperature can
        be translated into workload intensity consistently.
        """
        u = self.utilization_from_temperature(predicted_tmax, observed_setting)
        return self.required_setting_for_utilization(u)

    def boundaries(self, observed_setting: int) -> list[float]:
        """The LUT's temperature boundaries as seen at a setting.

        Entry m is the temperature (observed at ``observed_setting``)
        above which setting m no longer suffices — the "boundary
        temperature between two flow rate settings" of the paper's
        hysteresis rule. ``inf`` when setting m always suffices.
        """
        self._check_setting(observed_setting)
        temps = self.char.tmax[observed_setting]
        utils = self.char.utilizations
        out: list[float] = []
        for m in range(self.char.n_settings - 1):
            cap = self.utilization_cap(m)
            if math.isinf(cap):
                out.append(math.inf)
            elif cap <= utils[0]:
                out.append(-math.inf)
            elif cap >= utils[-1]:
                slope = _end_slope(utils, temps, left=False)
                out.append(float(temps[-1] + (cap - utils[-1]) * slope))
            else:
                out.append(float(np.interp(cap, utils, temps)))
        return out

    def _check_setting(self, setting: int) -> None:
        if not 0 <= setting < self.char.n_settings:
            raise ControlError(
                f"setting {setting} outside 0..{self.char.n_settings - 1}"
            )


def _end_slope(x: Sequence[float], y: Sequence[float], left: bool) -> float:
    """Finite-difference slope dy/dx at an end of a curve (for gentle
    extrapolation); zero when the end is flat."""
    if left:
        dx = x[1] - x[0]
        dy = y[1] - y[0]
    else:
        dx = x[-1] - x[-2]
        dy = y[-1] - y[-2]
    if abs(dx) < 1.0e-12:
        return 0.0
    return float(dy / dx)
