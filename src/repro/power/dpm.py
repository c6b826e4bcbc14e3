"""Dynamic power management: the paper's fixed-timeout sleep policy.

Section V: "We utilize a fixed timeout policy, which puts a core to
sleep state if it has been idle longer than the timeout period (i.e.,
200 ms in our experiments). We set a sleep state power of 0.02 Watts."
A sleeping core wakes as soon as work is dispatched to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.constants import POWER
from repro.errors import ConfigurationError
from repro.power.components import CoreState


@dataclass
class DpmPolicy:
    """Per-core fixed-timeout sleep controller.

    Parameters
    ----------
    core_names:
        The cores to manage.
    timeout:
        Continuous idle time after which a core sleeps, s (paper: 0.2).
    enabled:
        When false, cores never sleep (states are ACTIVE/IDLE only);
        the paper runs DPM only for the thermal-variation study (Fig. 7).
    """

    core_names: Sequence[str]
    timeout: float = POWER.dpm_timeout
    enabled: bool = True
    _idle_since: dict[str, float] = field(default_factory=dict, init=False)
    _states: dict[str, CoreState] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if self.timeout <= 0.0:
            raise ConfigurationError("DPM timeout must be positive")
        if not self.core_names:
            raise ConfigurationError("DPM needs at least one core")
        for name in self.core_names:
            self._idle_since[name] = 0.0
            self._states[name] = CoreState.IDLE

    def observe(self, now: float, busy: dict[str, bool]) -> dict[str, CoreState]:
        """Update states given which cores were busy in the last quantum.

        Parameters
        ----------
        now:
            Current simulation time, s.
        busy:
            Whether each core executed work during the elapsed quantum.

        Returns
        -------
        The state of every managed core after the update.
        """
        for name in self.core_names:
            if busy.get(name, False):
                self._states[name] = CoreState.ACTIVE
                self._idle_since[name] = now
            else:
                idle_for = now - self._idle_since[name]
                if self.enabled and idle_for >= self.timeout:
                    self._states[name] = CoreState.SLEEP
                else:
                    if self._states[name] is not CoreState.SLEEP:
                        self._states[name] = CoreState.IDLE
                    elif not self.enabled:
                        self._states[name] = CoreState.IDLE
        return dict(self._states)

    def wake(self, name: str, now: float) -> None:
        """Wake a core because work was dispatched to it."""
        if name not in self._states:
            raise ConfigurationError(f"unknown core {name!r}")
        self._states[name] = CoreState.ACTIVE
        self._idle_since[name] = now

    def state(self, name: str) -> CoreState:
        """Current state of one core."""
        if name not in self._states:
            raise ConfigurationError(f"unknown core {name!r}")
        return self._states[name]

    def states(self) -> dict[str, CoreState]:
        """Current state of every managed core."""
        return dict(self._states)
