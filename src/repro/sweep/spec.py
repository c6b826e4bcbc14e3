"""Declarative sweep specifications.

A :class:`SweepSpec` describes a parameter campaign over
:class:`~repro.sim.config.SimulationConfig` fields without constructing
any configs up front:

* ``grid`` — a cross-product axis set (``{field: values}``), expanded
  in field-insertion order with the last axis varying fastest;
* ``zip`` — lock-step axes (all value lists the same length), advanced
  together — e.g. paired ``forecast_enabled``/``hysteresis`` ablation
  variants;
* ``points`` — an explicit list of override dicts (the outermost axis),
  for irregular sets like the paper's seven policy/cooling combos.

Total runs = ``len(points or [{}]) x zip-length x grid-product``.
Expansion is lazy (:meth:`SweepSpec.iter_points` is a generator), so a
million-run campaign costs nothing to declare and O(1) memory to walk.

Field names accept friendly aliases (``benchmark`` for
``benchmark_name``, ``layers`` for ``n_layers``, ``dpm`` for
``dpm_enabled``). ``policy``/``controller``/``forecaster``/``workload``
axes take registry keys (any accepted spelling — ``"TALB"``,
``"talb"``, or a legacy enum member — normalizes to the canonical
key), ``cooling`` coerces from its string values (``"Var"``), and
dotted axes sweep nested mappings: ``thermal_params.<field>`` over
:class:`~repro.thermal.rc_network.ThermalParams` (e.g.
``thermal_params.inlet_temperature`` — the knob the related pump-power
studies vary most) and ``policy_params.<name>`` /
``controller_params.<name>`` / ``forecaster_params.<name>`` /
``workload_params.<name>`` over the
registered component's declared parameters (e.g.
``controller_params.kp`` for a PID gain study, or
``workload_params.burst_rate`` for a flash-crowd stress study).
Component parameter
*names* are validated when each point's config assembles — jointly
with the swept component key, since which names exist depends on it —
which :meth:`SweepSpec.validate_all` performs up front.

Every spec has a deterministic :meth:`fingerprint` (SHA-256 over the
canonical payload), which checkpoints embed so a resume can refuse to
continue a *different* sweep into an old journal.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.registry import (
    FrozenParams,
    controller_registry,
    facility_registry,
    forecaster_registry,
    policy_registry,
    workload_registry,
)
from repro.sim.config import (
    ControllerKind,
    CoolingMode,
    PolicyKind,
    SimulationConfig,
)
from repro.thermal.rc_network import ThermalParams

#: Friendly aliases accepted anywhere a config field is named.
#: (``workload`` is *not* an alias for ``benchmark_name`` — it names
#: the workload-model registry field of ``SimulationConfig``.)
FIELD_ALIASES: dict[str, str] = {
    "benchmark": "benchmark_name",
    "layers": "n_layers",
    "dpm": "dpm_enabled",
}

#: Registry-keyed fields and the registry that normalizes each
#: (callables: registries load their built-ins lazily).
_REGISTRY_FIELDS = {
    "policy": policy_registry,
    "controller": controller_registry,
    "forecaster": forecaster_registry,
    "workload": workload_registry,
    "facility": facility_registry,
}

#: Component-parameter mappings sweepable via dotted axes. Parameter
#: names are validated at config assembly (they depend on the component
#: key, which may itself be swept).
_PARAMS_FIELDS = (
    "policy_params",
    "controller_params",
    "forecaster_params",
    "workload_params",
    "facility_params",
)

_CONFIG_FIELDS = {f.name for f in dataclass_fields(SimulationConfig)}
_THERMAL_FIELDS = {f.name for f in dataclass_fields(ThermalParams)}

#: New-in-the-registry-era fields omitted from :func:`config_signature`
#: while they hold their defaults, so configs that never touch them
#: fingerprint byte-identically to the pre-registry code — old sweep
#: checkpoints and dist ledgers stay resumable.
_SIGNATURE_DEFAULTS: dict[str, Any] = {
    "policy_params": FrozenParams(),
    "controller_params": FrozenParams(),
    "forecaster": "arma",
    "forecaster_params": FrozenParams(),
    "workload": "table2",
    "workload_params": FrozenParams(),
    "solver": "exact",
    "facility": "none",
    "facility_params": FrozenParams(),
}


def canonical_field(name: str) -> str:
    """Resolve aliases and validate a sweepable field name."""
    resolved = FIELD_ALIASES.get(name, name)
    if resolved.startswith("thermal_params."):
        nested = resolved.split(".", 1)[1]
        if nested not in _THERMAL_FIELDS:
            raise ConfigurationError(
                f"unknown thermal_params field {nested!r}; "
                f"choose from {', '.join(sorted(_THERMAL_FIELDS))}"
            )
        return resolved
    root, dot, leaf = resolved.partition(".")
    if dot and root in _PARAMS_FIELDS:
        if not leaf or "." in leaf:
            raise ConfigurationError(
                f"bad component-parameter axis {name!r}; expected "
                f"{root}.<parameter>"
            )
        return resolved
    if resolved not in _CONFIG_FIELDS:
        raise ConfigurationError(
            f"unknown sweep field {name!r}; choose from "
            f"{', '.join(sorted(_CONFIG_FIELDS | set(FIELD_ALIASES)))} "
            "or a dotted thermal_params.<field> / "
            "policy_params.<name> / controller_params.<name> / "
            "forecaster_params.<name> / workload_params.<name> / "
            "facility_params.<name>"
        )
    return resolved


def coerce_value(field: str, value: Any) -> Any:
    """Coerce a declared axis value to the config field's type.

    Registry-keyed fields accept any registered spelling (canonical
    key, alias, or legacy enum member) and normalize to the canonical
    key; the whole ``thermal_params`` field accepts a mapping of
    :class:`~repro.thermal.rc_network.ThermalParams` fields; the
    component-parameter mappings accept any mapping (names/values are
    validated when the config assembles); everything else passes
    through (``SimulationConfig.__post_init__`` still validates the
    assembled config).
    """
    if field == "thermal_params":
        if isinstance(value, ThermalParams):
            return value
        if isinstance(value, Mapping):
            unknown = set(value) - _THERMAL_FIELDS
            if unknown:
                raise ConfigurationError(
                    f"unknown thermal_params fields: "
                    f"{', '.join(sorted(unknown))}; choose from "
                    f"{', '.join(sorted(_THERMAL_FIELDS))}"
                )
            return ThermalParams(**value)
        raise ConfigurationError(
            f"thermal_params must be a mapping of ThermalParams fields, "
            f"got {type(value).__name__}"
        )
    if field in _PARAMS_FIELDS:
        if not isinstance(value, Mapping):
            raise ConfigurationError(
                f"{field} must be a mapping of component parameters, "
                f"got {type(value).__name__}"
            )
        return dict(value)
    registry = _REGISTRY_FIELDS.get(field)
    if registry is not None:
        return registry().normalize(value)
    if field == "cooling":
        if isinstance(value, CoolingMode):
            return value
        try:
            return CoolingMode(value)
        except ValueError:
            choices = ", ".join(member.value for member in CoolingMode)
            raise ConfigurationError(
                f"bad value {value!r} for cooling; choose from {choices}"
            ) from None
    return value


def _encode_value(value: Any) -> Any:
    """A JSON-stable encoding of an axis value (for keys/fingerprints)."""
    if isinstance(value, (PolicyKind, CoolingMode, ControllerKind)):
        return value.value
    if isinstance(value, ThermalParams):
        return {f.name: getattr(value, f.name) for f in dataclass_fields(value)}
    if isinstance(value, Mapping):
        # Component-parameter mappings: canonical (sorted) key order so
        # equal mappings encode byte-identically.
        return {k: _encode_value(v) for k, v in sorted(value.items())}
    return value


def config_signature(config: SimulationConfig) -> dict:
    """Every operative field of a config as a JSON-stable dict.

    Unlike :func:`repro.io.sweep.config_descriptor` (the human-facing
    sweep-axis subset), this captures *all* fields, so two configs with
    equal signatures produce bit-identical runs. The registry-era
    fields (``forecaster``, ``workload``, and the ``*_params``
    mappings) are omitted while they hold their defaults: an absent
    entry and the
    default mean the same run, and the omission keeps pre-registry
    fingerprints — hence old checkpoints and campaign ledgers — valid.
    """
    signature = {}
    for f in dataclass_fields(config):
        value = getattr(config, f.name)
        default = _SIGNATURE_DEFAULTS.get(f.name)
        if default is not None and value == default:
            continue
        signature[f.name] = _encode_value(value)
    return signature


@dataclass(frozen=True)
class SweepPoint:
    """One expanded run of a sweep.

    Attributes
    ----------
    index:
        Position in expansion order (the fold/journal order).
    key:
        Stable human-readable identity: zero-padded index plus the
        canonical overrides, e.g. ``"00012 benchmark_name=gzip cooling=Var"``.
    overrides:
        The canonical (alias-resolved, coerced) override mapping this
        point applies to the base config.
    config:
        The assembled :class:`~repro.sim.config.SimulationConfig`.
    """

    index: int
    key: str
    overrides: dict
    config: SimulationConfig


def _apply_overrides(base: SimulationConfig, overrides: Mapping[str, Any]):
    """``replace(base, ...)`` supporting dotted nested-mapping fields.

    ``thermal_params.<field>`` replaces one field of the nested
    :class:`~repro.thermal.rc_network.ThermalParams`;
    ``policy_params.<name>`` (and the controller/forecaster
    equivalents) merges one parameter into the mapping — on top of a
    whole-mapping override for the same field when both are present,
    otherwise on top of the base config's mapping.
    """
    direct: dict[str, Any] = {}
    nested: dict[str, dict[str, Any]] = {}
    for field, value in overrides.items():
        root, dot, leaf = field.partition(".")
        if dot and (root == "thermal_params" or root in _PARAMS_FIELDS):
            nested.setdefault(root, {})[leaf] = value
        else:
            direct[field] = value
    for root, leaves in nested.items():
        if root == "thermal_params":
            start = direct.get(root, base.thermal_params)
            direct[root] = replace(start, **leaves)
        else:
            start = direct.get(root, getattr(base, root))
            direct[root] = {**dict(start), **leaves}
    return replace(base, **direct)


class SweepSpec:
    """A declarative description of a simulation sweep.

    Parameters
    ----------
    base:
        The config every point starts from (defaults to
        ``SimulationConfig()``).
    grid:
        Cross-product axes, ``{field: [values...]}``.
    zip_axes:
        Lock-step axes; all value lists must share one length.
    points:
        Explicit override dicts (outermost axis).
    reseed:
        When set, point ``i`` runs with ``seed = reseed + i`` (applied
        after all other overrides), giving distinct-but-reproducible
        stochastic instances across the sweep.
    name:
        Optional label carried into checkpoints and exports.
    """

    def __init__(
        self,
        base: Optional[SimulationConfig] = None,
        grid: Optional[Mapping[str, Sequence]] = None,
        zip_axes: Optional[Mapping[str, Sequence]] = None,
        points: Optional[Sequence[Mapping[str, Any]]] = None,
        reseed: Optional[int] = None,
        name: str = "",
    ) -> None:
        self.base = base if base is not None else SimulationConfig()
        self.name = name
        self.reseed = None if reseed is None else int(reseed)
        self.grid = self._canonical_axes(grid, "grid")
        self.zip_axes = self._canonical_axes(zip_axes, "zip")
        self.points = [self._canonical_point(p) for p in (points or [])]
        self._validate()

    # --- construction helpers ---------------------------------------------

    @staticmethod
    def _canonical_axes(
        axes: Optional[Mapping[str, Sequence]], what: str
    ) -> dict[str, list]:
        canonical: dict[str, list] = {}
        for field, values in (axes or {}).items():
            resolved = canonical_field(field)
            if resolved in canonical:
                raise ConfigurationError(
                    f"{what} axis {field!r} duplicates {resolved!r}"
                )
            values = [coerce_value(resolved, v) for v in values]
            if not values:
                raise ConfigurationError(f"{what} axis {field!r} has no values")
            canonical[resolved] = values
        return canonical

    @staticmethod
    def _canonical_point(point: Mapping[str, Any]) -> dict:
        canonical: dict[str, Any] = {}
        for field, value in point.items():
            resolved = canonical_field(field)
            if resolved in canonical:
                raise ConfigurationError(
                    f"point field {field!r} duplicates {resolved!r}"
                )
            canonical[resolved] = coerce_value(resolved, value)
        return canonical

    def _validate(self) -> None:
        lengths = {field: len(v) for field, v in self.zip_axes.items()}
        if len(set(lengths.values())) > 1:
            raise ConfigurationError(
                "zip axes must share one length, got "
                + ", ".join(f"{f}={n}" for f, n in lengths.items())
            )
        overlap = set(self.grid) & set(self.zip_axes)
        if overlap:
            raise ConfigurationError(
                f"fields in both grid and zip axes: {', '.join(sorted(overlap))}"
            )
        for point in self.points:
            clash = (set(point) & set(self.grid)) | (set(point) & set(self.zip_axes))
            if clash:
                raise ConfigurationError(
                    f"point fields also swept as axes: {', '.join(sorted(clash))}"
                )
        if self.reseed is not None:
            declares_seed = (
                "seed" in self.grid
                or "seed" in self.zip_axes
                or any("seed" in point for point in self.points)
            )
            if declares_seed:
                raise ConfigurationError(
                    "reseed replaces every run's seed with reseed+index, "
                    "so a sweep cannot also declare 'seed' as an axis or "
                    "point field — drop one of the two"
                )
        if self.run_count == 0:
            raise ConfigurationError("sweep expands to zero runs")
        # Assemble the first config eagerly so an obviously bad
        # declaration fails immediately; values in later axis positions
        # are covered by :meth:`validate_all`, which the sweep runner
        # calls before executing anything.
        first = next(self.iter_overrides())
        _apply_overrides(self.base, first)

    def validate_all(self) -> None:
        """Assemble every expanded config once, discarding each.

        Axis values can be individually plausible but jointly invalid
        (``SimulationConfig.__post_init__`` checks combinations like
        sampling interval vs quantum), and only position 0 is checked
        at declaration time. This walks the full expansion at O(1)
        memory — O(run_count) cheap constructions — so a bad point
        fails *before* a campaign starts, not hours into it. Raises
        :class:`~repro.errors.ConfigurationError` naming the offending
        point.
        """
        for index, overrides in enumerate(self.iter_overrides()):
            try:
                _apply_overrides(self.base, overrides)
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"sweep point {point_key(index, overrides)} is "
                    f"invalid: {exc}"
                ) from None

    # --- expansion ---------------------------------------------------------

    @property
    def zip_length(self) -> int:
        """Rows in the lock-step axis block (1 when absent)."""
        if not self.zip_axes:
            return 1
        return len(next(iter(self.zip_axes.values())))

    @property
    def grid_shape(self) -> tuple[int, ...]:
        """Axis lengths of the cross-product block."""
        return tuple(len(v) for v in self.grid.values())

    @property
    def run_count(self) -> int:
        """Total expanded runs."""
        total = max(len(self.points), 1) * self.zip_length
        for n in self.grid_shape:
            total *= n
        return total

    def iter_overrides(self) -> Iterator[dict]:
        """Expanded override dicts, in run order (lazy)."""
        grid_fields = list(self.grid)

        def grid_product(position: int) -> Iterator[dict]:
            if position == len(grid_fields):
                yield {}
                return
            field = grid_fields[position]
            for value in self.grid[field]:
                for rest in grid_product(position + 1):
                    yield {field: value, **rest}

        for point in self.points or [{}]:
            for row in range(self.zip_length):
                zipped = {f: v[row] for f, v in self.zip_axes.items()}
                for cell in grid_product(0):
                    yield {**point, **zipped, **cell}

    def iter_points(
        self, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[SweepPoint]:
        """Expanded :class:`SweepPoint`\\ s, in run order (lazy).

        ``start``/``stop`` select the half-open run-index range
        ``[start, stop)`` — the primitive a distributed planner shards
        a campaign with (:mod:`repro.dist`). Indices, keys, and configs
        are identical to the corresponding slice of the full expansion,
        so chunked execution can never disagree with single-host
        execution about what run ``i`` is.
        """
        if start < 0:
            raise ConfigurationError(f"start must be >= 0, got {start}")
        if stop is not None and stop < start:
            raise ConfigurationError(
                f"empty point range [{start}, {stop})"
            )
        width = max(5, len(str(max(self.run_count - 1, 0))))
        indexed = itertools.islice(
            enumerate(self.iter_overrides()), start, stop
        )
        for index, overrides in indexed:
            if self.reseed is not None:
                overrides = {**overrides, "seed": self.reseed + index}
            config = _apply_overrides(self.base, overrides)
            yield SweepPoint(
                index=index,
                key=point_key(index, overrides, width=width),
                overrides=overrides,
                config=config,
            )

    def __iter__(self) -> Iterator[SweepPoint]:
        return self.iter_points()

    def __len__(self) -> int:
        return self.run_count

    # --- identity and serialization ---------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready payload; :meth:`from_dict` round-trips it."""
        return {
            "name": self.name,
            "base": config_signature(self.base),
            "grid": {f: [_encode_value(v) for v in vals]
                     for f, vals in self.grid.items()},
            "zip": {f: [_encode_value(v) for v in vals]
                    for f, vals in self.zip_axes.items()},
            "points": [
                {f: _encode_value(v) for f, v in point.items()}
                for point in self.points
            ],
            "reseed": self.reseed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        """Build a spec from a declaration dict (e.g. a parsed file).

        ``base`` is a partial override dict on top of the default
        :class:`~repro.sim.config.SimulationConfig`; unknown top-level
        keys are rejected so a typo'd declaration fails loudly.
        """
        known = {"name", "base", "grid", "zip", "zip_axes", "points", "reseed"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown sweep spec keys: {', '.join(sorted(unknown))}; "
                f"expected {', '.join(sorted(known - {'zip_axes'}))}"
            )
        base_overrides = cls._canonical_point(payload.get("base") or {})
        base = _apply_overrides(SimulationConfig(), base_overrides)
        return cls(
            base=base,
            grid=payload.get("grid"),
            zip_axes=payload.get("zip", payload.get("zip_axes")),
            points=payload.get("points"),
            reseed=payload.get("reseed"),
            name=str(payload.get("name", "")),
        )

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "SweepSpec":
        """Load a declaration from a JSON (or YAML) file."""
        path = Path(path)
        text = path.read_text()
        if path.suffix.lower() in (".yaml", ".yml"):
            try:
                import yaml
            except ImportError:  # pragma: no cover - PyYAML is a test extra
                raise ConfigurationError(
                    f"reading {path} needs PyYAML; install it or use JSON"
                ) from None
            try:
                payload = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                raise ConfigurationError(
                    f"spec file {path} is not valid YAML: {exc}"
                ) from None
        else:
            payload = json.loads(text)
        if not isinstance(payload, Mapping):
            raise ConfigurationError(f"sweep spec {path} is not a mapping")
        spec = cls.from_dict(payload)
        if not spec.name:
            spec.name = path.stem
        return spec

    def fingerprint(self) -> str:
        """SHA-256 of the canonical payload (name excluded).

        Stable across processes and sessions; checkpoints embed it so a
        resume refuses to mix sweeps.
        """
        payload = self.to_dict()
        payload.pop("name")
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def describe(self) -> str:
        """One-line human summary for progress banners."""
        parts = [f"{self.run_count} runs"]
        if self.points:
            parts.append(f"{len(self.points)} points")
        if self.zip_axes:
            parts.append(
                "zip[" + ",".join(self.zip_axes) + f"]x{self.zip_length}"
            )
        for field, values in self.grid.items():
            parts.append(f"{field}x{len(values)}")
        label = self.name or "sweep"
        return f"{label}: " + " · ".join(parts)


def point_key(index: int, overrides: Mapping[str, Any], width: int = 5) -> str:
    """The stable identity a checkpoint journals for one run."""

    def render(value: Any) -> str:
        encoded = _encode_value(value)
        if isinstance(encoded, Mapping):
            # Canonical compact JSON so mapping-valued overrides render
            # identically however they were declared.
            return json.dumps(encoded, sort_keys=True, separators=(",", ":"))
        return str(encoded)

    encoded = ",".join(
        f"{field}={render(value)}"
        for field, value in sorted(overrides.items())
    )
    return f"{index:0{width}d}" + (f" {encoded}" if encoded else "")
