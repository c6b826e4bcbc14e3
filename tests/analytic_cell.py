"""The paper's analytic unit-cell junction model (Eqs. 1-7, Figure 2).

The junction temperature rise over the coolant inlet is the sum of
three components::

    dTj = dTcond + dTheat + dTconv                     (Eq. 1)

* ``dTcond = R_th-BEOL * q1`` — conduction through the wiring levels
  (Eqs. 2-3), flow independent;
* ``dTheat`` — sensible heating of the coolant along the channel
  (Eqs. 4-5); for non-uniform power it accumulates position by
  position: ``dTheat(n+1) = sum_i<=n dTheat(i)``;
* ``dTconv = (q1 + q2) / h_eff`` — the convective film drop (Eqs. 6-7).

A reference oracle, not part of the model: the grid RC network must
agree with it wherever the unit cell's assumptions hold (uniform heat
flux, developed flow), which ``tests/thermal/test_analytic.py`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import MICROCHANNEL
from repro.errors import ModelError
from repro.microchannel.model import MicrochannelModel


@dataclass(frozen=True)
class UnitCellResult:
    """Breakdown of the junction temperature rise at one position.

    All values in kelvin above the coolant inlet temperature.
    """

    dt_cond: float
    dt_heat: float
    dt_conv: float

    @property
    def dt_junction(self) -> float:
        """Eq. 1: total junction rise above inlet."""
        return self.dt_cond + self.dt_heat + self.dt_conv


@dataclass(frozen=True)
class AnalyticUnitCell:
    """Eq. 1-7 evaluated for a cavity fed at a given per-cavity flow.

    Parameters
    ----------
    model:
        Microchannel heat-transfer model (geometry + coolant + h(Vdot)).
    resistance_scale:
        The calibration scale (:mod:`repro.sim.calibration`) applied to the
        conduction and convection resistances, matching the grid model.
    """

    model: MicrochannelModel = field(default_factory=MicrochannelModel)
    resistance_scale: float = 1.0

    def dt_cond(self, q1: float) -> float:
        """Eq. 2: conduction rise through the BEOL for heat flux q1 (W/m^2)."""
        if q1 < 0.0:
            raise ModelError("heat flux must be non-negative")
        return MICROCHANNEL.r_beol * self.resistance_scale * q1

    def dt_conv(self, q1: float, q2: float, cavity_flow: float) -> float:
        """Eq. 6: convective rise for fluxes from both adjacent layers."""
        if q1 < 0.0 or q2 < 0.0:
            raise ModelError("heat fluxes must be non-negative")
        r_conv = self.model.convective_resistance_area(cavity_flow)
        return (q1 + q2) * r_conv * self.resistance_scale

    def dt_heat_uniform(self, q1: float, q2: float, heater_area: float, cavity_flow: float) -> float:
        """Eq. 4-5: sensible-heat rise for uniform power dissipation.

        ``dTheat = (q1 + q2) * R_th-heat`` with ``R_th-heat =
        A_heater / (c_p * rho * Vdot)`` (an area-referred resistance,
        K*m^2/W): the rise of the coolant at the outlet after absorbing
        ``(q1 + q2) * A_heater`` watts.
        """
        r_heat = self.model.r_heat(heater_area, cavity_flow)
        return (q1 + q2) * r_heat

    def junction_rise(self, q1: float, q2: float, heater_area: float, cavity_flow: float) -> UnitCellResult:
        """Eq. 1 at the channel outlet (worst position) for uniform power."""
        return UnitCellResult(
            dt_cond=self.dt_cond(q1),
            dt_heat=self.dt_heat_uniform(q1, q2, heater_area, cavity_flow),
            dt_conv=self.dt_conv(q1, q2, cavity_flow),
        )

    def heat_profile(self, fluxes: np.ndarray, segment_area: float, cavity_flow: float) -> np.ndarray:
        """Iterative sensible-heat accumulation along the channel.

        Implements the paper's general case: ``dTheat(n+1) =
        sum_{i<=n} dTheat(i)``, where position i absorbs
        ``fluxes[i] * segment_area`` watts into the cavity flow.

        Parameters
        ----------
        fluxes:
            Combined heat flux (q1 + q2, W/m^2) entering the coolant at
            each position along the channel, inlet first.
        segment_area:
            Heater area of one position, m^2.
        cavity_flow:
            Per-cavity volumetric flow rate, m^3/s.

        Returns
        -------
        The coolant temperature rise above inlet at each position.
        """
        fluxes = np.asarray(fluxes, dtype=float)
        if fluxes.ndim != 1:
            raise ModelError("fluxes must be one-dimensional")
        if np.any(fluxes < 0.0):
            raise ModelError("heat fluxes must be non-negative")
        if cavity_flow <= 0.0:
            raise ModelError("the heat profile requires a positive flow")
        capacity_rate = self.model.cavity_heat_capacity_rate(cavity_flow)
        per_position = fluxes * segment_area / capacity_rate
        # The coolant at position n has absorbed the heat of every
        # upstream position (cumulative sum, exclusive of downstream).
        return np.cumsum(per_position)
