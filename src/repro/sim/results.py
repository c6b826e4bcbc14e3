"""Simulation result containers and derived quantities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class SimulationResult:
    """Time series and counters produced by one simulation run.

    All per-interval arrays share the sampling grid ``times``; samples
    are taken at the *end* of each control interval.

    Attributes
    ----------
    times:
        Sample times, s.
    tmax:
        Maximum observable (sensor / unit-mean) temperature per
        interval, degC — what the controller and policies act on.
    tmax_cell:
        Maximum cell-level junction temperature per interval, degC —
        model ground truth, slightly above the sensor reading.
    core_temperatures:
        ``(n_intervals, n_cores)``, per-core sensor readings, degC.
    unit_temperatures:
        ``(n_intervals, n_units)``, per-floorplan-unit temperatures
        (for spatial gradients), degC.
    unit_names:
        Column labels of ``unit_temperatures`` (``die:unit``).
    core_names:
        Column labels of ``core_temperatures``.
    chip_power:
        Total chip power per interval, W.
    pump_power:
        Pump electrical power per interval, W (zero for air cooling).
    flow_setting:
        Commanded pump setting index per interval (-1 for air).
    completed_threads:
        Threads finished within each interval.
    forecast_tmax:
        The controller's predicted T_max per interval (NaN when no
        forecast was produced), degC.
    migrations:
        Cumulative migration count per interval.
    retrain_count:
        Total ARMA re-fits triggered by the SPRT.
    facility_inlet:
        Coolant inlet temperature the solve used per interval, degC —
        the closed loop's computed trajectory. ``None`` for
        fixed-inlet runs (``facility="none"``), as are the other
        facility series below.
    facility_cooling_power:
        Facility cooling power (chiller + tower fans + facility pumps)
        per interval at aggregate scale, W.
    facility_water_use:
        Cooling-tower make-up water per interval at aggregate scale,
        kg/s.
    facility_free_cooling:
        Whether the economizer bypassed the chiller, per interval.
    facility_scale:
        Chips aggregated behind the facility plant (``racks *
        chips_per_rack``; 1.0 without a facility). Chip-level series
        stay per-chip; PUE/WUE contrast them at equal scale.
    """

    times: np.ndarray
    tmax: np.ndarray
    tmax_cell: np.ndarray
    core_temperatures: np.ndarray
    unit_temperatures: np.ndarray
    unit_names: list[str]
    core_names: list[str]
    chip_power: np.ndarray
    pump_power: np.ndarray
    flow_setting: np.ndarray
    completed_threads: np.ndarray
    forecast_tmax: np.ndarray
    migrations: np.ndarray
    retrain_count: int = 0
    sojourn_sum: float = 0.0
    sojourn_count: int = 0
    facility_inlet: Optional[np.ndarray] = None
    facility_cooling_power: Optional[np.ndarray] = None
    facility_water_use: Optional[np.ndarray] = None
    facility_free_cooling: Optional[np.ndarray] = None
    facility_scale: float = 1.0

    def __post_init__(self) -> None:
        n = len(self.times)
        for name in (
            "tmax",
            "tmax_cell",
            "chip_power",
            "pump_power",
            "flow_setting",
            "completed_threads",
            "forecast_tmax",
            "migrations",
        ):
            if len(getattr(self, name)) != n:
                raise ConfigurationError(f"result field {name} length mismatch")
        if self.core_temperatures.shape[0] != n or self.unit_temperatures.shape[0] != n:
            raise ConfigurationError("temperature matrices length mismatch")
        for name in (
            "facility_inlet",
            "facility_cooling_power",
            "facility_water_use",
            "facility_free_cooling",
        ):
            series = getattr(self, name)
            if series is not None and len(series) != n:
                raise ConfigurationError(f"result field {name} length mismatch")

    @property
    def has_facility(self) -> bool:
        """Whether a facility loop was co-simulated with this run."""
        return self.facility_inlet is not None

    @property
    def interval(self) -> float:
        """Sampling interval, s: the first sample's time, since every
        sample closes an interval counted from t = 0 (0.0 when empty)."""
        return float(self.times[0]) if len(self.times) else 0.0

    @property
    def duration(self) -> float:
        """Covered simulation time, s."""
        return float(len(self.times) * self.interval)

    def chip_energy(self) -> float:
        """Chip energy over the run, J."""
        return float(self.chip_power.sum() * self.interval)

    def pump_energy(self) -> float:
        """Pump (cooling) energy over the run, J."""
        return float(self.pump_power.sum() * self.interval)

    def total_energy(self) -> float:
        """Chip + pump energy, J."""
        return self.chip_energy() + self.pump_energy()

    def throughput(self) -> float:
        """Threads completed per second."""
        if self.duration == 0.0:
            return 0.0
        return float(self.completed_threads.sum() / self.duration)

    def total_completed(self) -> int:
        """Total threads completed."""
        return int(self.completed_threads.sum())

    def time_above(self, threshold: float) -> float:
        """Fraction of samples with T_max above a threshold."""
        if len(self.tmax) == 0:
            return 0.0
        return float(np.mean(self.tmax > threshold))

    def peak_temperature(self) -> float:
        """Highest sampled T_max, degC."""
        return float(self.tmax.max()) if len(self.tmax) else float("nan")

    def mean_flow_setting(self) -> float:
        """Average commanded pump setting (liquid runs)."""
        valid = self.flow_setting[self.flow_setting >= 0]
        return float(valid.mean()) if len(valid) else float("nan")

    def cooling_energy(self) -> float:
        """Total cooling energy at facility aggregate scale, J.

        Facility plant energy (chiller + tower fans + facility pumps)
        plus the chip-level microchannel pumps replicated across the
        aggregated chips. NaN for fixed-inlet runs, where the plant is
        not modeled (``pump_energy()`` remains the chip-level figure).
        """
        if not self.has_facility:
            return float("nan")
        plant = float(self.facility_cooling_power.sum() * self.interval)
        return plant + self.facility_scale * self.pump_energy()

    def total_cooling_power(self) -> float:
        """Mean total cooling power at aggregate scale, W (NaN for
        fixed-inlet runs)."""
        if not self.has_facility or self.duration == 0.0:
            return float("nan")
        return self.cooling_energy() / self.duration

    def pue(self) -> float:
        """Power usage effectiveness: (IT + cooling) / IT energy.

        Uses the facility-aggregate balance — IT is the chip energy
        replicated across the aggregated chips — so the value is
        independent of the rack count. NaN for fixed-inlet runs.
        """
        it_energy = self.facility_scale * self.chip_energy()
        if not self.has_facility or it_energy <= 0.0:
            return float("nan")
        return 1.0 + self.cooling_energy() / it_energy

    def wue(self) -> float:
        """Water usage effectiveness: liters of make-up water per kWh
        of IT energy (the standard datacenter metric). NaN for
        fixed-inlet runs."""
        it_energy = self.facility_scale * self.chip_energy()
        if not self.has_facility or it_energy <= 0.0:
            return float("nan")
        # Water series is kg/s ~= L/s; kWh = 3.6e6 J.
        liters = float(self.facility_water_use.sum() * self.interval)
        return liters / (it_energy / 3.6e6)

    def mean_inlet_temperature(self) -> float:
        """Mean coolant inlet over the run, degC (NaN for fixed-inlet
        runs, where the inlet is the configured constant)."""
        if not self.has_facility or len(self.facility_inlet) == 0:
            return float("nan")
        return float(self.facility_inlet.mean())

    def free_cooling_fraction(self) -> float:
        """Fraction of intervals the economizer carried the load."""
        if not self.has_facility or len(self.facility_free_cooling) == 0:
            return float("nan")
        return float(np.mean(self.facility_free_cooling))

    def mean_sojourn_time(self) -> float:
        """Mean completed-thread sojourn (arrival to completion), s.

        The latency complement to throughput: queueing delay and
        migration penalties show up here long before they move the
        completion count ("long thread waiting times in the queues").
        """
        if self.sojourn_count == 0:
            return float("nan")
        return self.sojourn_sum / self.sojourn_count
