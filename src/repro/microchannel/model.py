"""Microchannel heat-transfer model (paper Eqs. 4-7).

This module computes the flow-rate-dependent quantities of the unit-cell
model:

* ``R_th-heat`` (Eq. 5): sensible-heat resistance A/(c_p * rho * Vdot);
* ``h_eff`` (Eq. 7): the footprint-referred heat transfer coefficient
  h * 2*(w_c + t_c)/p;
* a developing-laminar-flow (Graetz) Nusselt correlation that makes h
  depend on the flow rate.

The paper treats h as a constant 37 132 W/(m^2 K), valid "in case of
developed boundary layers". At the paper's channel lengths (~1 cm) and
velocities the thermal entrance length is a large fraction of the
channel, so the boundary layers are developing and h rises with flow;
without this dependence the flow rate would barely affect junction
temperature at UltraSPARC T1-class heat fluxes, and the variable-flow
controller would have nothing to trade.
We anchor the correlation so that h at the maximum per-cavity flow rate
(1 l/min, Table I) equals the paper's constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constants import MICROCHANNEL
from repro.errors import ModelError
from repro.microchannel.coolant import WATER, Coolant
from repro.microchannel.geometry import ChannelGeometry


def reynolds_number(geometry: ChannelGeometry, coolant: Coolant, cavity_flow: float) -> float:
    """Reynolds number of the channel flow for a per-cavity flow rate."""
    velocity = geometry.mean_velocity(cavity_flow)
    return coolant.density * velocity * geometry.hydraulic_diameter / coolant.viscosity


def graetz_number(geometry: ChannelGeometry, coolant: Coolant, cavity_flow: float) -> float:
    """Graetz number Gz = D_h * Re * Pr / L (thermal entrance parameter)."""
    re = reynolds_number(geometry, coolant, cavity_flow)
    return geometry.hydraulic_diameter * re * coolant.prandtl / geometry.length


def nusselt_developing(graetz: float) -> float:
    """Mean Nusselt number for thermally developing laminar duct flow.

    Hausen's correlation: Nu = 3.66 + 0.0668*Gz / (1 + 0.04*Gz^(2/3)).
    Approaches the fully developed constant-wall value 3.66 as Gz -> 0
    and grows with Gz (i.e. with flow rate) in the entrance regime.
    """
    if graetz < 0.0:
        raise ModelError("Graetz number must be non-negative")
    return 3.66 + 0.0668 * graetz / (1.0 + 0.04 * graetz ** (2.0 / 3.0))


@dataclass(frozen=True)
class MicrochannelModel:
    """Flow-dependent thermal quantities for one cavity's channel array.

    Parameters
    ----------
    geometry:
        Channel array geometry.
    coolant:
        Coolant properties (default: water, Table I).
    die_height:
        Die dimension across the channels, m; sets the effective pitch.
    anchor_flow:
        Per-cavity flow at which h equals ``anchor_h`` (Table I's
        maximum, 1 l/min).
    anchor_h:
        Heat transfer coefficient at the anchor flow (Table I: 37 132).
    """

    geometry: ChannelGeometry = field(default_factory=ChannelGeometry)
    coolant: Coolant = WATER
    die_height: float = 10.7238e-3
    anchor_flow: float = MICROCHANNEL.flow_rate_max
    anchor_h: float = MICROCHANNEL.heat_transfer_coefficient

    def heat_transfer_coefficient(self, cavity_flow: float) -> float:
        """h(Vdot), W/(m^2 K), from the anchored Graetz correlation.

        ``h(anchor_flow) == anchor_h`` by construction; below the anchor
        the coefficient falls following the developing-flow Nusselt
        ratio. A zero flow returns the fully developed floor scaled by
        the same anchor (stagnant coolant still conducts).
        """
        if cavity_flow < 0.0:
            raise ModelError("cavity flow must be non-negative")
        nu_anchor = nusselt_developing(graetz_number(self.geometry, self.coolant, self.anchor_flow))
        nu = nusselt_developing(graetz_number(self.geometry, self.coolant, cavity_flow))
        return self.anchor_h * nu / nu_anchor

    def effective_h(self, cavity_flow: float) -> float:
        """Eq. 7: h_eff = h * 2*(w_c + t_c) / p, W/(m^2 K), footprint-referred.

        Uses the uniform-distribution effective pitch (die height /
        channel count), see :meth:`ChannelGeometry.effective_pitch`.
        """
        factor = self.geometry.fin_area_factor(self.die_height)
        return self.heat_transfer_coefficient(cavity_flow) * factor

    def convective_resistance_area(self, cavity_flow: float) -> float:
        """Per-area convective resistance 1/h_eff, K*m^2/W (Eq. 6/7)."""
        h_eff = self.effective_h(cavity_flow)
        if h_eff <= 0.0:
            raise ModelError("effective h must be positive")
        return 1.0 / h_eff

    def r_heat(self, heater_area: float, cavity_flow: float) -> float:
        """Eq. 5: R_th-heat = A_heater / (c_p * rho * Vdot), K*m^2/W.

        An area-referred resistance: multiplied by a heat flux (W/m^2)
        it yields the coolant outlet rise. Valid for uniform power
        dissipation over ``heater_area``; the grid model instead
        performs the general iterative computation along the channel
        (Section III-A) via fluid advection.
        """
        if heater_area <= 0.0:
            raise ModelError("heater area must be positive")
        if cavity_flow <= 0.0:
            raise ModelError("R_heat requires a positive flow rate")
        return heater_area / (
            self.coolant.heat_capacity * self.coolant.density * cavity_flow
        )

    def cavity_heat_capacity_rate(self, cavity_flow: float) -> float:
        """Capacity rate m_dot * c_p of one cavity's total flow, W/K."""
        return self.coolant.mass_flow(cavity_flow) * self.coolant.heat_capacity
