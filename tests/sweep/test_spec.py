"""Sweep spec: expansion semantics, coercion, identity, serialization."""

import itertools
import json

import pytest

from repro.errors import ConfigurationError
from repro.sim.config import (
    ControllerKind,
    CoolingMode,
    PolicyKind,
    SimulationConfig,
)
from repro.sweep import SweepSpec, point_key
from repro.sweep.spec import canonical_field


class TestExpansion:
    def test_grid_is_cross_product_last_axis_fastest(self):
        spec = SweepSpec(
            grid={"benchmark_name": ["gzip", "Web-med"], "cooling": ["Var", "Max"]}
        )
        combos = [
            (p.config.benchmark_name, p.config.cooling.value)
            for p in spec.iter_points()
        ]
        assert combos == [
            ("gzip", "Var"), ("gzip", "Max"),
            ("Web-med", "Var"), ("Web-med", "Max"),
        ]
        assert spec.run_count == 4

    def test_zip_axes_advance_together(self):
        spec = SweepSpec(
            zip_axes={"forecast_enabled": [True, False], "hysteresis": [2.0, 0.0]}
        )
        rows = [
            (p.config.forecast_enabled, p.config.hysteresis)
            for p in spec.iter_points()
        ]
        assert rows == [(True, 2.0), (False, 0.0)]

    def test_points_cross_zip_cross_grid(self):
        spec = SweepSpec(
            points=[{"policy": "LB"}, {"policy": "TALB"}],
            zip_axes={"seed": [1, 2]},
            grid={"benchmark_name": ["gzip", "Database", "MPlayer"]},
        )
        assert spec.run_count == 2 * 2 * 3
        points = list(spec.iter_points())
        assert len(points) == 12
        # Outermost axis is the points list. Policies normalize to
        # canonical registry keys.
        assert points[0].config.policy == "LB"
        assert points[-1].config.policy == "TALB"

    def test_indices_and_keys_are_stable(self):
        spec = SweepSpec(grid={"benchmark_name": ["gzip", "Web-med"]})
        points = list(spec.iter_points())
        assert [p.index for p in points] == [0, 1]
        assert points[0].key.startswith("00000 ")
        assert "benchmark_name=gzip" in points[0].key
        # Two expansions produce identical keys.
        assert [p.key for p in spec.iter_points()] == [p.key for p in points]

    def test_shape_and_summary(self):
        spec = SweepSpec(
            points=[{"policy": "LB"}, {"policy": "TALB"}],
            zip_axes={"seed": [1, 2]},
            grid={"benchmark_name": ["gzip", "Database", "MPlayer"]},
            name="demo",
        )
        assert spec.zip_length == 2
        assert spec.grid_shape == (3,)
        assert spec.describe() == (
            "demo: 12 runs · 2 points · zip[seed]x2 · benchmark_namex3"
        )
        bare = SweepSpec()
        assert (bare.zip_length, bare.grid_shape) == (1, ())
        assert bare.describe() == "sweep: 1 runs"

    def test_point_key_sorts_fields_and_canonicalizes_mappings(self):
        assert point_key(7, {"seed": 3, "benchmark_name": "gzip"}) == (
            "00007 benchmark_name=gzip,seed=3"
        )
        assert point_key(0, {}) == "00000"
        assert point_key(1, {"policy_params": {"b": 2, "a": 1}}) == (
            '00001 policy_params={"a":1,"b":2}'
        )

    def test_expansion_is_lazy(self):
        spec = SweepSpec(grid={"seed": list(range(100_000))})
        assert spec.run_count == 100_000
        first_three = list(itertools.islice(spec.iter_points(), 3))
        assert [p.config.seed for p in first_three] == [0, 1, 2]

    def test_reseed_gives_distinct_seeds_per_index(self):
        spec = SweepSpec(
            grid={"benchmark_name": ["gzip", "Web-med"]}, reseed=100
        )
        assert [p.config.seed for p in spec.iter_points()] == [100, 101]

    def test_reseed_with_seed_axis_rejected(self):
        # reseed would silently overwrite the declared seeds otherwise.
        with pytest.raises(ConfigurationError, match="reseed"):
            SweepSpec(grid={"seed": [101, 202]}, reseed=0)
        with pytest.raises(ConfigurationError, match="reseed"):
            SweepSpec(points=[{"seed": 7}], reseed=0)

    def test_whole_thermal_params_mapping_coerces(self):
        spec = SweepSpec(
            points=[{"thermal_params": {"inlet_temperature": 45.0}}],
        )
        point = next(spec.iter_points())
        assert point.config.thermal_params.inlet_temperature == 45.0
        # The coerced value is a real ThermalParams (hashable), so the
        # engine's cache keys work.
        hash(point.config)

    def test_whole_thermal_params_bad_field_rejected(self):
        with pytest.raises(ConfigurationError, match="thermal_params fields"):
            SweepSpec(points=[{"thermal_params": {"not_a_field": 1.0}}])

    def test_whole_thermal_params_non_mapping_rejected(self):
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            SweepSpec(points=[{"thermal_params": 60.0}])

    def test_dotted_thermal_params_axis(self):
        spec = SweepSpec(
            grid={"thermal_params.inlet_temperature": [45.0, 60.0]}
        )
        inlets = [
            p.config.thermal_params.inlet_temperature for p in spec.iter_points()
        ]
        assert inlets == [45.0, 60.0]
        # Other thermal params keep base values.
        base = SimulationConfig().thermal_params
        for p in spec.iter_points():
            assert p.config.thermal_params.k_silicon == base.k_silicon


class TestCoercionAndValidation:
    def test_aliases_and_enum_strings(self):
        spec = SweepSpec(
            points=[{"benchmark": "gzip", "layers": 4, "dpm": True}],
            grid={"cooling": ["Var"], "controller": ["stepwise"]},
        )
        point = next(spec.iter_points())
        assert point.config.benchmark_name == "gzip"
        assert point.config.n_layers == 4
        assert point.config.dpm_enabled is True
        assert point.config.cooling is CoolingMode.LIQUID_VARIABLE
        assert point.config.controller == ControllerKind.STEPWISE.value

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep field"):
            SweepSpec(grid={"not_a_field": [1]})

    def test_canonical_field_resolves_aliases_and_dotted_axes(self):
        assert canonical_field("layers") == "n_layers"
        assert canonical_field("policy_params.gain") == "policy_params.gain"
        with pytest.raises(ConfigurationError, match="bad component-parameter"):
            canonical_field("policy_params.a.b")
        with pytest.raises(ConfigurationError, match="unknown thermal_params"):
            canonical_field("thermal_params.bogus")

    def test_bad_enum_value_rejected(self):
        with pytest.raises(ConfigurationError, match="choose from"):
            SweepSpec(grid={"policy": ["FIFO"]})

    def test_zip_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="share one length"):
            SweepSpec(zip_axes={"seed": [1, 2], "hysteresis": [0.0]})

    def test_grid_zip_overlap_rejected(self):
        with pytest.raises(ConfigurationError, match="both grid and zip"):
            SweepSpec(grid={"seed": [1]}, zip_axes={"seed": [2]})

    def test_point_axis_overlap_rejected(self):
        with pytest.raises(ConfigurationError, match="also swept"):
            SweepSpec(points=[{"seed": 1}], grid={"seed": [2]})

    def test_alias_duplicate_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicates"):
            SweepSpec(grid={"benchmark": ["gzip"], "benchmark_name": ["gzip"]})

    def test_bad_config_value_fails_at_declaration(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(grid={"n_layers": [3]})  # only 2 or 4 are valid

    def test_validate_all_catches_bad_later_positions(self):
        # Position 0 (n_layers=2) is fine, so declaration succeeds...
        spec = SweepSpec(grid={"layers": [2, 3]})
        # ...but the full walk names the offending point.
        with pytest.raises(ConfigurationError, match="00001.*n_layers"):
            spec.validate_all()

    def test_validate_all_passes_valid_spec(self):
        SweepSpec(grid={"layers": [2, 4]}).validate_all()

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="no values"):
            SweepSpec(grid={"seed": []})


class TestIdentityAndSerialization:
    def test_fingerprint_stable_and_discriminating(self):
        def make():
            return SweepSpec(
                base=SimulationConfig(duration=2.0),
                grid={"benchmark_name": ["gzip", "Web-med"]},
                name="a",
            )
        assert make().fingerprint() == make().fingerprint()
        # The name is a label, not an identity.
        other_name = SweepSpec(
            base=SimulationConfig(duration=2.0),
            grid={"benchmark_name": ["gzip", "Web-med"]},
            name="b",
        )
        assert other_name.fingerprint() == make().fingerprint()
        different = SweepSpec(
            base=SimulationConfig(duration=2.0),
            grid={"benchmark_name": ["gzip", "Database"]},
        )
        assert different.fingerprint() != make().fingerprint()

    def test_dict_round_trip(self):
        spec = SweepSpec(
            base=SimulationConfig(duration=3.0, policy=PolicyKind.LB),
            grid={"benchmark_name": ["gzip"]},
            zip_axes={"hysteresis": [1.0]},
            points=[{"cooling": "Max"}],
            reseed=7,
            name="rt",
        )
        clone = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.fingerprint() == spec.fingerprint()
        assert [p.key for p in clone.iter_points()] == [
            p.key for p in spec.iter_points()
        ]

    def test_from_file_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "base": {"duration": 2.0},
            "grid": {"benchmark": ["gzip"], "cooling": ["Var", "Max"]},
        }))
        spec = SweepSpec.from_file(path)
        assert spec.run_count == 2
        assert spec.name == "spec"  # Defaults to the file stem.
        assert spec.base.duration == 2.0

    def test_from_file_yaml(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        del yaml
        path = tmp_path / "spec.yaml"
        path.write_text(
            "base:\n  duration: 2.0\ngrid:\n  benchmark: [gzip, Web-med]\n"
        )
        spec = SweepSpec.from_file(path)
        assert spec.run_count == 2

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep spec keys"):
            SweepSpec.from_dict({"grids": {"seed": [1]}})
