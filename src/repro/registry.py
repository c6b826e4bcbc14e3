"""String-keyed component registries: the simulation's extension points.

The paper's comparison set (LB/Migration/TALB x Air/Max/Var, LUT vs
stepwise) used to be frozen into enums and ``isinstance`` checks inside
the engine, so every new scenario meant editing the engine itself.
Related work explores exactly the axes that hard-coding forbids —
controller dynamics variants (Islam & Abdel-Motaleb), thermal design
space search (Cuesta et al.) — and this module turns each into a
sweepable configuration point instead of a code fork.

Four registries, one per pluggable role:

* **policies** (:func:`register_policy`) — scheduler policies invoked
  at dispatch and per control interval
  (:class:`repro.sched.base.SchedulerPolicy`);
* **controllers** (:func:`register_controller`) — variable-flow pump
  controllers (:class:`repro.control.base.FlowController`);
* **forecasters** (:func:`register_forecaster`) — maximum-temperature
  predictors feeding the controller;
* **workloads** (:func:`register_workload`) — thread-trace models
  (:class:`repro.workload.models.WorkloadModel`) that build the load a
  run executes, from the Table II synthetic generator to replayed
  mpstat logs;
* **facilities** (:func:`register_facility`) — facility cooling loops
  (:class:`repro.facility.loop.FacilityModel`) co-simulated with the
  chip engine per control interval, turning the coolant inlet
  temperature into an output of a CDU/chiller/cooling-tower energy
  balance (``"none"`` — the default fixed-inlet behaviour — is itself
  a registered entry).

A registration binds a string key to a *factory* plus a declared
parameter schema (:class:`ParamSpec`) and capability *traits*::

    from repro.registry import ParamSpec, register_policy

    @register_policy(
        "hottest-last",
        params=(ParamSpec("margin", "float", default=2.0, doc="..."),),
        description="Send work anywhere but the hottest core",
    )
    def _build(ctx, margin=2.0):
        return HottestLastPolicy(margin=margin)

and from that moment ``SimulationConfig(policy="hottest-last",
policy_params={"margin": 1.0})`` is a first-class configuration —
constructible from the CLI, sweepable through
:class:`~repro.sweep.spec.SweepSpec` dotted axes
(``policy_params.margin``), fingerprinted, and shardable through
``repro dist``.

Factories receive a *context* object carrying everything the engine
knows at build time (the config, the thermal system, the pump state,
the characterization cache — see :class:`PolicyContext`,
:class:`ControllerContext`, :class:`ForecasterContext`) followed by the
validated parameters as keyword arguments.

Canonical keys of the built-ins deliberately equal the historical enum
values (``"LB"``, ``"Mig"``, ``"TALB"``; ``"lut"``, ``"stepwise"``), so
configs, figure labels, and sweep fingerprints are byte-identical to
the enum era; the enums themselves remain accepted aliases. Lookup is
case-insensitive over keys and declared aliases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "FrozenParams",
    "ParamSpec",
    "ComponentEntry",
    "Registry",
    "PolicyContext",
    "ControllerContext",
    "ForecasterContext",
    "WorkloadContext",
    "FacilityContext",
    "policy_registry",
    "controller_registry",
    "forecaster_registry",
    "workload_registry",
    "facility_registry",
    "register_policy",
    "register_controller",
    "register_forecaster",
    "register_workload",
    "register_facility",
]

#: Scalar types a declared parameter may take (JSON-representable, so
#: params survive fingerprints, checkpoints, and dist ledgers exactly).
_PARAM_KINDS: dict[str, type] = {
    "float": float,
    "int": int,
    "bool": bool,
    "str": str,
}


class FrozenParams(Mapping):
    """An immutable, hashable, canonically ordered parameter mapping.

    ``SimulationConfig`` is frozen and hashable (the run cache and the
    system memo key on it), so its parameter mappings must be too.
    Items are stored sorted by name, giving one canonical iteration
    order everywhere — reprs, JSON encodings, and fingerprints of equal
    mappings are byte-identical regardless of declaration order.
    """

    __slots__ = ("_items",)

    def __init__(self, mapping: Optional[Mapping[str, Any]] = None) -> None:
        items = dict(mapping or {})
        for name, value in items.items():
            if not isinstance(name, str):
                raise ConfigurationError(
                    f"parameter names must be strings, got {name!r}"
                )
            if not isinstance(value, (bool, int, float, str)):
                raise ConfigurationError(
                    f"parameter {name!r} must be a scalar "
                    f"(bool/int/float/str), got {type(value).__name__}"
                )
        self._items: Tuple[Tuple[str, Any], ...] = tuple(sorted(items.items()))

    def __getitem__(self, key: str) -> Any:
        for name, value in self._items:
            if name == key:
                return value
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return (name for name, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return hash(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrozenParams):
            return self._items == other._items
        if isinstance(other, Mapping):
            return dict(self._items) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._items)
        return f"FrozenParams({inner})"

    def to_dict(self) -> dict:
        """A plain (sorted-order) dict — the JSON encoding."""
        return dict(self._items)


@dataclass(frozen=True)
class ParamSpec:
    """One declared parameter of a registered component.

    Parameters
    ----------
    name:
        The keyword the factory receives.
    kind:
        One of ``"float"``, ``"int"``, ``"bool"``, ``"str"``.
    default:
        Documented default (the factory's own default applies when the
        config omits the parameter); display-only.
    doc:
        One-line description for ``repro list``.
    minimum, maximum:
        Optional inclusive bounds enforced at config validation time
        (numeric kinds only).
    """

    name: str
    kind: str = "float"
    default: Any = None
    doc: str = ""
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _PARAM_KINDS:
            raise ConfigurationError(
                f"parameter {self.name!r} has unknown kind {self.kind!r}; "
                f"choose from {', '.join(_PARAM_KINDS)}"
            )

    def coerce(self, value: Any, component: str) -> Any:
        """Validate and canonicalize one supplied value.

        ``int`` values are accepted for ``float`` parameters (and
        canonicalized to float, so ``kp=1`` and ``kp=1.0`` fingerprint
        identically); ``bool`` is never silently accepted for numeric
        kinds (it *is* an int in Python, and ``kp=True`` is always a
        mistake).
        """
        target = _PARAM_KINDS[self.kind]
        if self.kind == "bool":
            if not isinstance(value, bool):
                raise ConfigurationError(
                    f"{component} parameter {self.name!r} must be a bool, "
                    f"got {value!r}"
                )
        elif self.kind in ("float", "int"):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigurationError(
                    f"{component} parameter {self.name!r} must be a "
                    f"{self.kind}, got {value!r}"
                )
            if self.kind == "int" and float(value) != int(value):
                raise ConfigurationError(
                    f"{component} parameter {self.name!r} must be an "
                    f"integer, got {value!r}"
                )
            value = target(value)
            if self.minimum is not None and value < self.minimum:
                raise ConfigurationError(
                    f"{component} parameter {self.name!r} must be >= "
                    f"{self.minimum}, got {value}"
                )
            if self.maximum is not None and value > self.maximum:
                raise ConfigurationError(
                    f"{component} parameter {self.name!r} must be <= "
                    f"{self.maximum}, got {value}"
                )
        elif not isinstance(value, str):
            raise ConfigurationError(
                f"{component} parameter {self.name!r} must be a str, "
                f"got {value!r}"
            )
        return target(value)


@dataclass(frozen=True)
class ComponentEntry:
    """One registered component: key, factory, schema, capabilities."""

    key: str
    factory: Callable[..., Any]
    params: Tuple[ParamSpec, ...] = ()
    aliases: Tuple[str, ...] = ()
    description: str = ""
    #: Capability flags consumers may query (e.g. the characterization
    #: cache warms flow tables only for controllers declaring
    #: ``needs_flow_table``; TALB declares ``uses_thermal_weights``).
    traits: FrozenParams = field(default_factory=FrozenParams)

    def param(self, name: str) -> Optional[ParamSpec]:
        for spec in self.params:
            if spec.name == name:
                return spec
        return None

    def trait(self, name: str, default: Any = False) -> Any:
        return self.traits.get(name, default)


class Registry:
    """A case-insensitive, alias-aware component registry."""

    def __init__(self, role: str) -> None:
        self.role = role
        self._entries: dict[str, ComponentEntry] = {}
        self._lookup: dict[str, str] = {}  # lowercase key/alias -> canonical

    # --- registration -------------------------------------------------------

    def register(
        self,
        key: str,
        factory: Callable[..., Any],
        params: Sequence[ParamSpec] = (),
        aliases: Sequence[str] = (),
        description: str = "",
        traits: Optional[Mapping[str, Any]] = None,
        replace: bool = False,
    ) -> ComponentEntry:
        """Bind ``key`` to ``factory``; see the module docstring.

        Re-registering an existing key (or colliding with another
        entry's alias) is an error unless ``replace=True`` — a silent
        shadow would make two configs with one key mean different runs.
        """
        if not key or not isinstance(key, str):
            raise ConfigurationError(f"{self.role} key must be a non-empty string")
        names = {spec.name for spec in params}
        if len(names) != len(params):
            raise ConfigurationError(
                f"{self.role} {key!r} declares duplicate parameter names"
            )
        entry = ComponentEntry(
            key=key,
            factory=factory,
            params=tuple(params),
            aliases=tuple(aliases),
            description=description,
            traits=FrozenParams(traits or {}),
        )
        forms = {key.lower(), *(a.lower() for a in entry.aliases)}
        # A key/alias owned by a *different* entry is always a refusal:
        # replace=True means "re-bind my own key deliberately", never
        # "steal another entry's name" — that would make one key mean
        # two different runs with no error.
        for form in sorted(forms):
            owner = self._lookup.get(form)
            if owner is not None and owner != key:
                raise ConfigurationError(
                    f"{self.role} name {form!r} already registered "
                    f"by {owner!r}"
                )
        if not replace:
            if key in self._entries:
                raise ConfigurationError(
                    f"{self.role} {key!r} is already registered; pass "
                    "replace=True to override it deliberately"
                )
        else:
            previous = self._entries.pop(key, None)
            if previous is not None:
                for form in {previous.key.lower(),
                             *(a.lower() for a in previous.aliases)}:
                    self._lookup.pop(form, None)
        self._entries[key] = entry
        for form in forms:
            self._lookup[form] = key
        return entry

    # --- lookup -------------------------------------------------------------

    def keys(self) -> list[str]:
        """Canonical keys, in registration order."""
        return list(self._entries)

    def entries(self) -> list[ComponentEntry]:
        return list(self._entries.values())

    def known_names(self) -> list[str]:
        """Every accepted spelling (keys + aliases), sorted."""
        return sorted(self._lookup)

    def normalize(self, value: Any) -> str:
        """Resolve a key, alias, or legacy enum member to the canonical key.

        Enum members resolve through their ``.value`` — that is what
        keeps ``PolicyKind.TALB`` working everywhere a key is expected.
        """
        raw = getattr(value, "value", value)
        if not isinstance(raw, str):
            raise ConfigurationError(
                f"{self.role} must be a string key, got {value!r}"
            )
        canonical = self._lookup.get(raw.lower())
        if canonical is None:
            raise ConfigurationError(
                f"unknown {self.role} {raw!r}; choose from "
                f"{', '.join(self.keys())}"
            )
        return canonical

    def get(self, value: Any) -> ComponentEntry:
        return self._entries[self.normalize(value)]

    def __contains__(self, value: Any) -> bool:
        raw = getattr(value, "value", value)
        return isinstance(raw, str) and raw.lower() in self._lookup

    def __len__(self) -> int:
        return len(self._entries)

    # --- construction -------------------------------------------------------

    def validate_params(self, key: Any, params: Optional[Mapping]) -> dict:
        """Check a parameter mapping against the entry's declared schema.

        Unknown names are rejected with the declared choices; values
        are coerced to their declared kinds (so equal settings encode
        identically however they were spelled). Returns the canonical
        keyword dict for the factory.
        """
        entry = self.get(key)
        validated: dict[str, Any] = {}
        for name, value in dict(params or {}).items():
            spec = entry.param(name)
            if spec is None:
                declared = ", ".join(p.name for p in entry.params) or "(none)"
                raise ConfigurationError(
                    f"{self.role} {entry.key!r} has no parameter {name!r}; "
                    f"declared parameters: {declared}"
                )
            validated[name] = spec.coerce(value, f"{self.role} {entry.key!r}")
        return validated

    def create(self, key: Any, params: Optional[Mapping] = None, context: Any = None):
        """Build a component: validate params, call the factory."""
        entry = self.get(key)
        kwargs = self.validate_params(key, params)
        return entry.factory(context, **kwargs)


# --- factory contexts ------------------------------------------------------
#
# Fields are intentionally loosely typed: the registry sits below the
# sim/sched/control layers and must not import them.


@dataclass(frozen=True)
class PolicyContext:
    """Build-time context handed to scheduler-policy factories.

    Attributes
    ----------
    config:
        The run's :class:`~repro.sim.config.SimulationConfig`.
    system:
        The :class:`~repro.sim.system.ThermalSystem`.
    cache:
        The :class:`~repro.sim.cache.CharacterizationCache`.
    weight_provider:
        Callable ``tmax -> ThermalWeights`` for the current cooling
        condition (what TALB consumes).
    """

    config: Any
    system: Any = None
    cache: Any = None
    weight_provider: Any = None


@dataclass(frozen=True)
class ControllerContext:
    """Build-time context handed to flow-controller factories.

    ``pump_state`` owns the transition delay; ``cache`` provides the
    offline characterizations (flow table, burst floor) for entries
    declaring the ``needs_flow_table`` trait.
    """

    config: Any
    pump_state: Any
    system: Any = None
    cache: Any = None


@dataclass(frozen=True)
class ForecasterContext:
    """Build-time context handed to forecaster factories.

    ``horizon_steps`` is the forecast lead in control intervals
    (the paper's 500 ms / sampling interval).
    """

    config: Any
    horizon_steps: int = 1


@dataclass(frozen=True)
class WorkloadContext:
    """Build-time context handed to workload-model factories.

    Carries exactly what trace construction needs, explicitly —
    ``spec`` (the Table II benchmark row), ``n_cores``, ``duration``,
    ``seed`` — so experiment layers can build traces without a full
    :class:`~repro.sim.config.SimulationConfig` (``config`` is then
    ``None``).
    """

    spec: Any
    n_cores: int
    duration: float
    seed: int = 0
    config: Any = None


@dataclass(frozen=True)
class FacilityContext:
    """Build-time context handed to facility-loop factories.

    ``initial_inlet_temperature`` seeds the closed loop at the config's
    fixed-inlet operating point, so the co-simulation starts from the
    same state a fixed-inlet run would hold forever; ``system`` is the
    :class:`~repro.sim.system.ThermalSystem` (for coolant properties
    and flow settings).
    """

    config: Any
    initial_inlet_temperature: float = 60.0
    system: Any = None


# --- the five global registries --------------------------------------------

_POLICIES = Registry("policy")
_CONTROLLERS = Registry("flow controller")
_FORECASTERS = Registry("forecaster")
_WORKLOADS = Registry("workload")
_FACILITIES = Registry("facility")

_builtins_loaded = False


def _ensure_builtins() -> None:
    """Import the component packages so their registrations run.

    Lazy (and idempotent): ``repro.sim.config`` can normalize keys
    without importing the scheduler/control stack at module import
    time, which would be an import cycle.
    """
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    import repro.control  # noqa: F401  (registers controllers + forecasters)
    import repro.facility  # noqa: F401  (registers facility loops)
    import repro.sched  # noqa: F401  (registers policies)
    import repro.workload.models  # noqa: F401  (registers workload models)


def policy_registry() -> Registry:
    """The scheduler-policy registry (built-ins loaded on first use)."""
    _ensure_builtins()
    return _POLICIES


def controller_registry() -> Registry:
    """The variable-flow controller registry."""
    _ensure_builtins()
    return _CONTROLLERS


def forecaster_registry() -> Registry:
    """The temperature-forecaster registry."""
    _ensure_builtins()
    return _FORECASTERS


def workload_registry() -> Registry:
    """The workload-model registry."""
    _ensure_builtins()
    return _WORKLOADS


def facility_registry() -> Registry:
    """The facility cooling-loop registry."""
    _ensure_builtins()
    return _FACILITIES


def _decorator(registry: Registry):
    def register(
        key: str,
        params: Sequence[ParamSpec] = (),
        aliases: Sequence[str] = (),
        description: str = "",
        traits: Optional[Mapping[str, Any]] = None,
        replace: bool = False,
    ):
        def wrap(factory: Callable[..., Any]) -> Callable[..., Any]:
            registry.register(
                key,
                factory,
                params=params,
                aliases=aliases,
                description=description,
                traits=traits,
                replace=replace,
            )
            return factory

        return wrap

    return register


#: Decorator registering a scheduler-policy factory; see module docstring.
register_policy = _decorator(_POLICIES)
#: Decorator registering a flow-controller factory.
register_controller = _decorator(_CONTROLLERS)
#: Decorator registering a forecaster factory.
register_forecaster = _decorator(_FORECASTERS)
#: Decorator registering a workload-model factory.
register_workload = _decorator(_WORKLOADS)
#: Decorator registering a facility cooling-loop factory.
register_facility = _decorator(_FACILITIES)
