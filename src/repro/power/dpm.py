"""Dynamic power management: the paper's fixed-timeout sleep policy.

Section V: "We utilize a fixed timeout policy, which puts a core to
sleep state if it has been idle longer than the timeout period (i.e.,
200 ms in our experiments). We set a sleep state power of 0.02 Watts."
A sleeping core wakes as soon as work is dispatched to it.

The power model reads core states once per control interval, so the
controller updates once per interval, not once per 10 ms scheduler
quantum. The two are exact equals. A core's idle clock restarts only at
an event: a dispatch to it (at the quantum's start) or a busy quantum
(at the quantum's end). Between events the timeout test
``now - idle_since >= timeout`` is monotone in ``now``, and only an
event leaves SLEEP. So the state at the interval's end depends only on
the core's last event and on whether its last quantum was busy. The
caller finds the last event by quantum order, never by comparing times:
the end of one quantum and the start of the next can differ by an ulp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.constants import POWER
from repro.errors import ConfigurationError
from repro.power.components import CoreState


@dataclass
class DpmPolicy:
    """Per-core fixed-timeout sleep controller.

    Parameters
    ----------
    core_names:
        The cores to manage; per-core sequences passed to
        :meth:`observe` follow this order.
    timeout:
        Continuous idle time after which a core sleeps, s (paper: 0.2).
    enabled:
        When false, cores never sleep (states are ACTIVE/IDLE only);
        the paper runs DPM only for the thermal-variation study (Fig. 7).
    """

    core_names: Sequence[str]
    timeout: float = POWER.dpm_timeout
    enabled: bool = True
    _index: dict[str, int] = field(default_factory=dict, init=False)
    _idle_since: list[float] = field(default_factory=list, init=False)
    _states: list[CoreState] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.timeout <= 0.0:
            raise ConfigurationError("DPM timeout must be positive")
        if not self.core_names:
            raise ConfigurationError("DPM needs at least one core")
        self._index = {name: i for i, name in enumerate(self.core_names)}
        self._idle_since = [0.0] * len(self.core_names)
        self._states = [CoreState.IDLE] * len(self.core_names)

    def observe(
        self,
        now: float,
        last_event: Sequence[Optional[float]],
        busy: Sequence[bool],
    ) -> list[bool]:
        """Close one control interval; return which cores are asleep.

        Parameters
        ----------
        now:
            End of the interval's last quantum, s; never decreases.
        last_event:
            Per core, the time of its last event this interval: a
            dispatch (the quantum's start) or a busy quantum (its end),
            whichever came later in quantum order; ``None`` without one.
        busy:
            Per core, whether it executed work in the last quantum.
        """
        if len(last_event) != len(self._states) or len(busy) != len(self._states):
            raise ConfigurationError("DPM observe needs one entry per core")
        idle_since = self._idle_since
        states = self._states
        asleep = []
        for i, event in enumerate(last_event):
            if event is not None:
                idle_since[i] = event
            if busy[i]:
                state = CoreState.ACTIVE
            elif self.enabled and now - idle_since[i] >= self.timeout:
                state = CoreState.SLEEP
            else:
                state = CoreState.IDLE
            states[i] = state
            asleep.append(state is CoreState.SLEEP)
        return asleep

    def wake(self, name: str, now: float) -> None:
        """Wake a core now because work was dispatched to it."""
        if name not in self._index:
            raise ConfigurationError(f"unknown core {name!r}")
        i = self._index[name]
        self._states[i] = CoreState.ACTIVE
        self._idle_since[i] = now

    def state(self, name: str) -> CoreState:
        """Current state of one core."""
        if name not in self._index:
            raise ConfigurationError(f"unknown core {name!r}")
        return self._states[self._index[name]]

    def states(self) -> dict[str, CoreState]:
        """Current state of every managed core."""
        return dict(zip(self.core_names, self._states))
