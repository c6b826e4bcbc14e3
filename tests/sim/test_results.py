"""Simulation result containers and derived quantities."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from helpers import make_result


class TestDerivedQuantities:
    def test_chip_energy_integrates_power(self):
        r = make_result(np.full(10, 70.0), chip_power=np.full(10, 30.0))
        assert r.chip_energy() == pytest.approx(30.0 * 10 * 0.1)

    def test_pump_energy(self):
        r = make_result(np.full(10, 70.0), pump_power=np.full(10, 21.0))
        assert r.pump_energy() == pytest.approx(21.0)

    def test_total_energy(self):
        r = make_result(
            np.full(4, 70.0),
            chip_power=np.full(4, 30.0),
            pump_power=np.full(4, 10.0),
        )
        assert r.total_energy() == pytest.approx(r.chip_energy() + r.pump_energy())

    def test_throughput(self):
        r = make_result(np.full(10, 70.0), completed=np.full(10, 3))
        assert r.throughput() == pytest.approx(30.0 / 1.0)

    def test_time_above(self):
        r = make_result(np.array([80.0, 86.0, 90.0, 70.0]))
        assert r.time_above(85.0) == pytest.approx(0.5)

    def test_peak_temperature(self):
        r = make_result(np.array([70.0, 91.5, 80.0]))
        assert r.peak_temperature() == pytest.approx(91.5)

    def test_mean_flow_setting_ignores_air(self):
        r = make_result(np.full(4, 70.0))
        assert np.isnan(r.mean_flow_setting())

    def test_interval(self):
        r = make_result(np.full(5, 70.0), interval=0.1)
        assert r.interval == pytest.approx(0.1)

    def test_one_interval_run_covers_its_interval(self):
        """Regression: the interval was read as ``times[1] - times[0]``,
        so a run of one interval reported 0 s and 0 J."""
        from repro import SimulationConfig, simulate

        r = simulate(SimulationConfig(duration=0.06, nx=8, ny=8))
        assert len(r.times) == 1
        assert r.duration == 0.1
        assert r.chip_energy() == r.chip_power[0] * 0.1 > 0.0


class TestCoolingEnergy:
    def test_nan_without_a_facility_loop(self):
        r = make_result(np.full(4, 70.0), pump_power=np.full(4, 10.0))
        assert np.isnan(r.cooling_energy())

    def test_plant_plus_replicated_chip_pumps(self):
        base = make_result(np.full(10, 70.0), pump_power=np.full(10, 21.0))
        r = dataclasses.replace(
            base,
            facility_inlet=np.full(10, 30.0),
            facility_cooling_power=np.full(10, 500.0),
            facility_scale=100.0,
        )
        # 500 W of plant for 1 s, plus 100 chips' 21 J of pumping.
        assert r.cooling_energy() == pytest.approx(500.0 + 100.0 * 21.0)
        assert r.total_cooling_power() == pytest.approx(r.cooling_energy() / r.duration)


class TestValidation:
    def test_rejects_length_mismatch(self):
        make_result(np.full(5, 70.0))
        with pytest.raises(ConfigurationError):
            make_result(np.full(5, 70.0), chip_power=np.ones(3))
