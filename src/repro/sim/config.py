"""Simulation configuration (the experiment matrix of Section V).

``policy``, ``controller``, ``forecaster``, ``workload``, and
``facility`` are **registry keys** (:mod:`repro.registry`): strings
naming a registered component, with optional frozen parameter mappings
(``policy_params``, ``controller_params``, ``forecaster_params``,
``workload_params``, ``facility_params``) validated against the
component's declared schema at construction time. The historical enums
(:class:`PolicyKind`, :class:`ControllerKind`) remain accepted aliases
— ``SimulationConfig(policy=PolicyKind.TALB)`` and
``SimulationConfig(policy="talb")`` normalize to the same canonical
config, with identical labels, fingerprints, and runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Any, Mapping, Union

from repro.constants import CONTROL
from repro.errors import ConfigurationError
from repro.registry import (
    FrozenParams,
    controller_registry,
    facility_registry,
    forecaster_registry,
    policy_registry,
    workload_registry,
)
from repro.thermal.rc_network import ThermalParams
from repro.workload.benchmarks import BenchmarkSpec, benchmark


class PolicyKind(Enum):
    """Legacy aliases for the built-in scheduling policies.

    Kept for backward compatibility: anywhere a policy key is accepted,
    a :class:`PolicyKind` member normalizes to its canonical registry
    key (``member.value``). New code — and any non-paper policy, e.g.
    the round-robin baseline ``"RR"`` — should use string keys; see
    ``repro list policies``.
    """

    LB = "LB"
    MIGRATION = "Mig"
    TALB = "TALB"


class ControllerKind(Enum):
    """Legacy aliases for the built-in variable-flow controllers.

    ``LUT`` — the paper's contribution: ARMA forecast + characterized
    look-up table + 2 degC hysteresis;
    ``STEPWISE`` — the prior-work [6] baseline: reactive one-step
    increment/decrement on the measured temperature.

    As with :class:`PolicyKind`, these normalize to registry keys; the
    PID baseline (``"pid"``) and any user-registered controller have no
    enum member and are addressed by key alone.
    """

    LUT = "lut"
    STEPWISE = "stepwise"


class CoolingMode(Enum):
    """Cooling configuration of a run.

    ``AIR`` — conventional package ("(Air)" in the figures);
    ``LIQUID_MAX`` — liquid cooling at the worst-case maximum flow
    ("(Max)");
    ``LIQUID_VARIABLE`` — the paper's controller ("(Var)").
    """

    AIR = "Air"
    LIQUID_MAX = "Max"
    LIQUID_VARIABLE = "Var"

    @property
    def is_liquid(self) -> bool:
        """Whether the mode uses the microchannel loop."""
        return self is not CoolingMode.AIR


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one simulation run needs.

    Defaults follow Section V: 100 ms sampling, 10 ms scheduler
    quantum, 2-layer stack, DPM off (on for the Figure 7 study).
    """

    benchmark_name: str = "Web-med"
    policy: Union[PolicyKind, str] = "TALB"
    cooling: CoolingMode = CoolingMode.LIQUID_VARIABLE
    n_layers: int = 2
    duration: float = 30.0
    quantum: float = 0.01
    sampling_interval: float = CONTROL.sampling_interval
    dpm_enabled: bool = False
    seed: int = 0
    nx: int = 16
    ny: int = 16
    thermal_params: ThermalParams = field(default_factory=ThermalParams)
    target_temperature: float = CONTROL.target_temperature
    hysteresis: float = CONTROL.hysteresis
    talb_weight_target: float = 75.0
    forecast_enabled: bool = True
    controller: Union[ControllerKind, str] = "lut"
    characterization_guard: float = 3.0
    """Guard band (K) subtracted from the target when building the flow
    look-up table. The characterization assumes uniform utilization; a
    single long thread concentrates its core's power and runs locally
    hotter, and sudden arrivals outrun the 250-300 ms pump transition,
    so the table is built to cool to ``target - guard`` and the
    transients stay below the target itself."""
    policy_params: Mapping[str, Any] = field(default_factory=FrozenParams)
    """Parameters for the scheduling policy, validated against the
    registry entry's declared schema (``repro list policies``)."""
    controller_params: Mapping[str, Any] = field(default_factory=FrozenParams)
    """Parameters for the flow controller (``repro list controllers``)."""
    forecaster: str = "arma"
    """Registry key of the maximum-temperature forecaster (the paper's
    ARMA+SPRT predictor by default; ``repro list forecasters``)."""
    forecaster_params: Mapping[str, Any] = field(default_factory=FrozenParams)
    """Parameters for the forecaster."""
    workload: str = "table2"
    """Registry key of the workload model that builds this run's thread
    trace (``repro list workloads``). The default is the stationary
    Table II synthetic generator; ``trace-replay``, ``diurnal``, and
    ``flash-crowd`` are built in, and user models register like
    policies."""
    workload_params: Mapping[str, Any] = field(default_factory=FrozenParams)
    """Parameters for the workload model (e.g. ``{"path": ...}`` for
    ``trace-replay``, ``{"burst_rate": 0.2}`` for ``flash-crowd``)."""
    solver: str = "exact"
    """Thermal linear-solver tier: ``"exact"`` (sparse LU per distinct
    network — bit-reproducible, the default) or ``"krylov"``
    (neighbor-LU preconditioned GMRES — reuses nearby design points'
    factorizations across ``thermal_params`` sweeps; agrees with exact
    within :data:`repro.thermal.solver.KRYLOV_TEMPERATURE_TOLERANCE`).
    Sweepable like any other field."""
    facility: str = "none"
    """Registry key of the facility cooling loop co-simulated with the
    chip (``repro list facilities``). The default ``"none"`` is the
    classic fixed-inlet run — byte-identical results, and the field is
    omitted from ``config_signature`` at its default so pre-facility
    fingerprints, checkpoints, and ledgers stay valid. ``"closed-loop"``
    computes the inlet temperature from a CDU -> chiller/economizer ->
    cooling tower energy balance and adds PUE/WUE/total-cooling-power
    to the results."""
    facility_params: Mapping[str, Any] = field(default_factory=FrozenParams)
    """Parameters for the facility loop (e.g. ``{"racks": 2250,
    "wet_bulb_c": 18.0}`` for ``closed-loop``)."""

    def __post_init__(self) -> None:
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            try:
                finite = math.isfinite(value)
            except TypeError:
                finite = False
            if not finite:
                raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
        if self.n_layers not in (2, 4):
            raise ConfigurationError("n_layers must be 2 or 4")
        if self.duration <= 0.0:
            raise ConfigurationError("duration must be positive")
        if self.quantum <= 0.0 or self.sampling_interval <= 0.0:
            raise ConfigurationError("quantum and sampling interval must be positive")
        if self.sampling_interval < self.quantum:
            raise ConfigurationError("sampling interval must be >= quantum")
        ratio = self.sampling_interval / self.quantum
        if abs(ratio - round(ratio)) > 1.0e-9:
            raise ConfigurationError(
                "sampling interval must be an integer multiple of the quantum"
            )
        if round(self.duration / self.sampling_interval) < 1:
            raise ConfigurationError(
                f"duration {self.duration!r} s runs no interval: it must cover more "
                f"than half a sampling interval ({self.sampling_interval!r} s)"
            )
        if any(
            isinstance(n, bool) or not isinstance(n, int) or n < 1
            for n in (self.nx, self.ny)
        ):
            raise ConfigurationError("nx and ny must be integers >= 1")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) \
                or self.seed < 0:
            raise ConfigurationError("seed must be an integer >= 0")
        if not isinstance(self.cooling, CoolingMode):
            raise ConfigurationError(
                f"cooling must be a CoolingMode, got {self.cooling!r}"
            )
        if self.solver not in ("exact", "krylov"):
            raise ConfigurationError(
                f"solver must be 'exact' or 'krylov', got {self.solver!r}"
            )
        # Normalize the registry keys (enums and aliases -> canonical)
        # and validate the parameter mappings against each component's
        # declared schema. The coerced/frozen forms are what hash,
        # fingerprint, and serialize.
        self._normalize("policy", "policy_params", policy_registry())
        self._normalize("controller", "controller_params", controller_registry())
        self._normalize("forecaster", "forecaster_params", forecaster_registry())
        self._normalize("workload", "workload_params", workload_registry())
        self._normalize("facility", "facility_params", facility_registry())
        benchmark(self.benchmark_name)  # Validates the name early.

    def _normalize(self, key_field: str, params_field: str, registry) -> None:
        key = registry.normalize(getattr(self, key_field))
        params = getattr(self, params_field)
        if not isinstance(params, Mapping):
            raise ConfigurationError(
                f"{params_field} must be a mapping, got {type(params).__name__}"
            )
        frozen = FrozenParams(registry.validate_params(key, params))
        object.__setattr__(self, key_field, key)
        object.__setattr__(self, params_field, frozen)

    @property
    def spec(self) -> BenchmarkSpec:
        """The Table II benchmark this run executes."""
        return benchmark(self.benchmark_name)

    @property
    def n_cores(self) -> int:
        """8 cores on the 2-layer system, 16 on the 4-layer system."""
        return 8 if self.n_layers == 2 else 16

    def label(self) -> str:
        """Figure-style label, e.g. ``"TALB (Var)"``."""
        return f"{self.policy} ({self.cooling.value})"


_FLOAT_FIELDS = tuple(f.name for f in fields(SimulationConfig) if f.type == "float")
"""The fields that must hold finite numbers (checked first, so a NaN
or infinity never reaches the range and ratio checks)."""
