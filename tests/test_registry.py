"""The component registry: lookup, schemas, traits, immutable params."""

import pytest

from repro.errors import ConfigurationError
from repro.registry import (
    FrozenParams,
    ParamSpec,
    Registry,
    controller_registry,
    forecaster_registry,
    policy_registry,
)
from repro.sim.config import ControllerKind, PolicyKind


class TestFrozenParams:
    def test_mapping_semantics_and_hash(self):
        params = FrozenParams({"kp": 1.5, "kd": 0.5})
        assert params["kp"] == 1.5
        assert len(params) == 2
        assert dict(params) == {"kd": 0.5, "kp": 1.5}
        # Declaration order is irrelevant: one canonical identity.
        other = FrozenParams({"kd": 0.5, "kp": 1.5})
        assert params == other
        assert hash(params) == hash(other)

    def test_sorted_canonical_iteration(self):
        params = FrozenParams({"z": 1, "a": 2, "m": 3})
        assert list(params) == ["a", "m", "z"]
        assert list(params.to_dict()) == ["a", "m", "z"]

    def test_compares_equal_to_plain_mappings(self):
        assert FrozenParams({"a": 1}) == {"a": 1}
        assert FrozenParams() == {}

    def test_rejects_non_scalar_values(self):
        with pytest.raises(ConfigurationError, match="scalar"):
            FrozenParams({"a": [1, 2]})
        with pytest.raises(ConfigurationError, match="strings"):
            FrozenParams({1: 2.0})


class TestParamSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown kind"):
            ParamSpec("x", "complex")

    def test_int_accepted_for_float_and_canonicalized(self):
        spec = ParamSpec("kp", "float")
        value = spec.coerce(2, "test")
        assert value == 2.0 and isinstance(value, float)

    def test_bool_rejected_for_numeric_kinds(self):
        with pytest.raises(ConfigurationError, match="float"):
            ParamSpec("kp", "float").coerce(True, "test")
        with pytest.raises(ConfigurationError, match="int"):
            ParamSpec("n", "int").coerce(False, "test")

    def test_fractional_rejected_for_int(self):
        with pytest.raises(ConfigurationError, match="integer"):
            ParamSpec("n", "int").coerce(1.5, "test")

    def test_bounds_enforced(self):
        spec = ParamSpec("n", "int", minimum=1, maximum=8)
        assert spec.coerce(8, "test") == 8
        with pytest.raises(ConfigurationError, match=">= 1"):
            spec.coerce(0, "test")
        with pytest.raises(ConfigurationError, match="<= 8"):
            spec.coerce(9, "test")


class TestRegistry:
    def _registry(self):
        reg = Registry("widget")
        reg.register(
            "Alpha",
            lambda ctx, **kw: ("alpha", ctx, kw),
            params=(ParamSpec("gain", "float", default=1.0),),
            aliases=("a",),
            traits={"fancy": True},
        )
        return reg

    def test_normalize_is_case_insensitive_and_alias_aware(self):
        reg = self._registry()
        for spelling in ("Alpha", "alpha", "ALPHA", "a", "A"):
            assert reg.normalize(spelling) == "Alpha"

    def test_known_names_lists_keys_and_aliases_sorted(self):
        reg = self._registry()
        reg.register("Beta", lambda ctx: None, aliases=("b", "second"))
        assert reg.known_names() == ["a", "alpha", "b", "beta", "second"]

    def test_unknown_key_lists_choices(self):
        reg = self._registry()
        with pytest.raises(ConfigurationError, match="choose from Alpha"):
            reg.normalize("beta")

    def test_duplicate_key_and_alias_collisions_rejected(self):
        reg = self._registry()
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.register("Alpha", lambda ctx: None)
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.register("Beta", lambda ctx: None, aliases=("a",))

    def test_replace_reregisters(self):
        reg = self._registry()
        reg.register("Alpha", lambda ctx, **kw: "v2", replace=True)
        assert reg.create("alpha") == "v2"
        # The old alias was dropped with the old entry.
        with pytest.raises(ConfigurationError):
            reg.normalize("a")

    def test_replace_cannot_steal_another_entrys_name(self):
        """replace=True re-binds one's own key; hijacking a different
        entry's key or alias must still refuse."""
        reg = self._registry()
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.register("Beta", lambda ctx: None, aliases=("a",), replace=True)
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.register("ALPHA", lambda ctx: None, replace=True)
        assert reg.normalize("a") == "Alpha"  # Untouched.

    def test_validate_params_rejects_unknown_names(self):
        reg = self._registry()
        with pytest.raises(ConfigurationError, match="no parameter 'oops'"):
            reg.validate_params("Alpha", {"oops": 1})

    def test_create_passes_context_and_coerced_params(self):
        reg = self._registry()
        kind, ctx, kwargs = reg.create("a", {"gain": 3}, context="CTX")
        assert (kind, ctx) == ("alpha", "CTX")
        assert kwargs == {"gain": 3.0}
        assert isinstance(kwargs["gain"], float)

    def test_traits_and_contains(self):
        reg = self._registry()
        assert reg.get("alpha").trait("fancy") is True
        assert reg.get("alpha").trait("absent") is False
        assert "a" in reg and "beta" not in reg


class TestBuiltinRegistrations:
    def test_policy_keys_match_legacy_enum_values(self):
        keys = set(policy_registry().keys())
        assert {member.value for member in PolicyKind} <= keys
        assert "RR" in keys  # The registry-only baseline.

    def test_controller_keys(self):
        keys = set(controller_registry().keys())
        assert {member.value for member in ControllerKind} <= keys
        assert "pid" in keys

    def test_forecaster_keys(self):
        assert {"arma", "persistence"} <= set(forecaster_registry().keys())

    def test_enum_members_normalize(self):
        assert policy_registry().normalize(PolicyKind.MIGRATION) == "Mig"
        assert controller_registry().normalize(ControllerKind.LUT) == "lut"

    def test_capability_traits(self):
        assert policy_registry().get("TALB").trait("uses_thermal_weights")
        assert not policy_registry().get("LB").trait("uses_thermal_weights")
        assert controller_registry().get("lut").trait("needs_flow_table")
        assert not controller_registry().get("pid").trait("needs_flow_table")
