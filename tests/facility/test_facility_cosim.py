"""Engine co-simulation, signature stability, and facility I/O.

The pinned-signature tests hardcode the exact pre-facility
``config_signature`` dicts: if the facility fields ever leak into a
default config's signature, old sweep checkpoints and dist ledgers
stop resuming, and these tests fail before any user hits it.
"""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.io.sweep import config_descriptor
from repro.io.serialize import (
    load_result,
    result_summary,
    save_result,
    write_timeseries_csv,
)
from repro.sim.config import CoolingMode, PolicyKind, SimulationConfig
from repro.sim.engine import simulate
from repro.sweep.spec import config_signature

BASE = dict(
    benchmark_name="Web-med",
    policy=PolicyKind.TALB,
    cooling=CoolingMode.LIQUID_VARIABLE,
    duration=2.0,
    seed=0,
)

#: The paper's thermal parameters, verbatim — shared by every pinned
#: signature below.
_THERMAL_SIG = {
    "air_resistance_scale": 2.9,
    "inlet_temperature": 60.0,
    "interlayer_conductivity": 4.0,
    "interlayer_vol_capacity": 2000000.0,
    "k_silicon": 148.0,
    "r_beol_area": 5.333e-06,
    "resistance_scale": 4.5,
    "silicon_vol_capacity": 1659000.0,
    "tsv_conductivity": 400.0,
}


class TestSignaturePin:
    def test_default_config_signature_is_byte_stable(self):
        assert config_signature(SimulationConfig()) == {
            "benchmark_name": "Web-med",
            "characterization_guard": 3.0,
            "controller": "lut",
            "cooling": "Var",
            "dpm_enabled": False,
            "duration": 30.0,
            "forecast_enabled": True,
            "hysteresis": 2.0,
            "n_layers": 2,
            "nx": 16,
            "ny": 16,
            "policy": "TALB",
            "quantum": 0.01,
            "sampling_interval": 0.1,
            "seed": 0,
            "talb_weight_target": 75.0,
            "target_temperature": 80.0,
            "thermal_params": _THERMAL_SIG,
        }

    def test_tuned_pre_facility_config_signature_is_byte_stable(self):
        config = SimulationConfig(
            benchmark_name="Database",
            controller="pid",
            controller_params={"kp": 0.75},
            n_layers=4,
            dpm_enabled=True,
        )
        assert config_signature(config) == {
            "benchmark_name": "Database",
            "characterization_guard": 3.0,
            "controller": "pid",
            "controller_params": {"kp": 0.75},
            "cooling": "Var",
            "dpm_enabled": True,
            "duration": 30.0,
            "forecast_enabled": True,
            "hysteresis": 2.0,
            "n_layers": 4,
            "nx": 16,
            "ny": 16,
            "policy": "TALB",
            "quantum": 0.01,
            "sampling_interval": 0.1,
            "seed": 0,
            "talb_weight_target": 75.0,
            "target_temperature": 80.0,
            "thermal_params": _THERMAL_SIG,
        }

    def test_facility_fields_enter_the_signature_only_when_set(self):
        plain = config_signature(SimulationConfig(**BASE))
        assert "facility" not in plain
        assert "facility_params" not in plain
        closed = config_signature(
            SimulationConfig(**BASE, facility="closed-loop",
                             facility_params={"wet_bulb_c": 14.0})
        )
        assert closed["facility"] == "closed-loop"
        assert closed["facility_params"] == {"wet_bulb_c": 14.0}


class TestEngineCoupling:
    def test_fixed_inlet_alias_is_byte_identical_to_default(self):
        baseline = simulate(SimulationConfig(**BASE))
        aliased = simulate(SimulationConfig(**BASE, facility="fixed-inlet"))
        assert not baseline.has_facility and not aliased.has_facility
        np.testing.assert_array_equal(aliased.tmax, baseline.tmax)
        np.testing.assert_array_equal(
            aliased.core_temperatures, baseline.core_temperatures
        )
        np.testing.assert_array_equal(aliased.pump_power, baseline.pump_power)

    def test_fixed_inlet_metrics_are_undefined(self):
        result = simulate(SimulationConfig(**BASE))
        assert np.isnan(result.pue())
        assert np.isnan(result.total_cooling_power())
        summary = result_summary(result)
        assert summary["pue"] is None
        assert summary["total_cooling_power_w"] is None

    def test_closed_loop_reports_first_class_metrics(self):
        result = simulate(SimulationConfig(**BASE, facility="closed-loop"))
        assert result.has_facility
        assert len(result.facility_inlet) == len(result.times)
        assert result.pue() > 1.0
        assert result.total_cooling_power() > 0.0
        assert result.wue() > 0.0
        # Paper setpoint + start at 60 degC: the loop holds station.
        assert result.mean_inlet_temperature() == pytest.approx(60.0, abs=1.0)
        assert result.free_cooling_fraction() == 1.0
        summary = result_summary(result)
        assert summary["pue"] == pytest.approx(result.pue())
        assert summary["free_cooling_pct"] == pytest.approx(100.0)

    def test_closed_loop_converges_to_the_setpoint(self):
        result = simulate(SimulationConfig(
            benchmark_name="Web-med",
            policy=PolicyKind.TALB,
            cooling=CoolingMode.LIQUID_VARIABLE,
            duration=10.0,
            seed=0,
            facility="closed-loop",
            # A small tank so the CDU can land the 5 K pull-down well
            # inside the 10 s run.
            facility_params={"supply_setpoint_c": 55.0, "loop_volume_l": 0.1},
        ))
        # Started at 60 degC, steered to 55: monotone approach, settled
        # within the control band by the end of the run.
        inlet = result.facility_inlet
        assert inlet[0] <= 60.0
        assert np.all(np.diff(inlet) <= 1e-9)
        assert abs(inlet[-1] - 55.0) < 0.5
        assert abs(inlet[-1] - inlet[-2]) < 0.05

    def test_facility_requires_liquid_cooling(self):
        with pytest.raises(ConfigurationError, match="liquid"):
            simulate(SimulationConfig(
                benchmark_name="Web-med",
                cooling=CoolingMode.AIR,
                duration=1.0,
                facility="closed-loop",
            ))

    def test_aggregation_scale_leaves_temperatures_unchanged(self):
        small = simulate(SimulationConfig(**BASE, facility="closed-loop"))
        big = simulate(SimulationConfig(
            **BASE, facility="closed-loop",
            facility_params={"racks": 2250, "chips_per_rack": 4},
        ))
        np.testing.assert_array_equal(big.tmax, small.tmax)
        np.testing.assert_array_equal(big.facility_inlet, small.facility_inlet)
        assert big.facility_scale == 9000.0
        # PUE/WUE are intensive; cooling power reports at room scale.
        assert big.pue() == pytest.approx(small.pue())
        assert big.wue() == pytest.approx(small.wue())
        assert big.total_cooling_power() == pytest.approx(
            9000.0 * small.total_cooling_power()
        )


class TestFacilityIo:
    @pytest.fixture(scope="class")
    def result(self):
        return simulate(SimulationConfig(**BASE, facility="closed-loop"))

    def test_json_round_trip_preserves_facility_series(self, tmp_path, result):
        path = tmp_path / "run.json"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.has_facility
        assert loaded.facility_scale == result.facility_scale
        np.testing.assert_array_equal(loaded.facility_inlet, result.facility_inlet)
        np.testing.assert_array_equal(
            loaded.facility_cooling_power, result.facility_cooling_power
        )
        np.testing.assert_array_equal(
            loaded.facility_free_cooling, result.facility_free_cooling
        )
        assert loaded.pue() == result.pue()

    def test_fixed_inlet_payload_has_no_facility_block(self, tmp_path):
        result = simulate(SimulationConfig(**BASE))
        path = tmp_path / "run.json"
        save_result(result, path)
        payload = json.loads(path.read_text())
        assert "facility" not in payload
        assert not load_result(path).has_facility

    def test_csv_gains_facility_columns_only_with_a_facility(
        self, tmp_path, result
    ):
        fixed = simulate(SimulationConfig(**BASE))
        write_timeseries_csv(fixed, tmp_path / "fixed.csv")
        write_timeseries_csv(result, tmp_path / "loop.csv")
        fixed_header = (tmp_path / "fixed.csv").read_text().splitlines()[0]
        loop_header = (tmp_path / "loop.csv").read_text().splitlines()[0]
        assert "facility_inlet_c" not in fixed_header
        for column in ("facility_inlet_c", "facility_cooling_power_w",
                       "facility_water_kg_s", "free_cooling"):
            assert column in loop_header

    def test_config_descriptor_carries_facility_columns(self):
        config = SimulationConfig(
            **BASE, facility="closed-loop",
            facility_params={"wet_bulb_c": 14.0},
        )
        descriptor = config_descriptor(config)
        assert descriptor["facility"] == "closed-loop"
        assert json.loads(descriptor["facility_params"]) == {"wet_bulb_c": 14.0}
        assert config_descriptor(SimulationConfig(**BASE))["facility"] == "none"
