"""Naive (per-quantum) reference implementation of the DPM controller.

A line-for-line retained copy of the fixed-timeout sleep policy as it
ran before the engine collapsed DPM to one update per control interval:
``observe`` is called at the end of every scheduler quantum with each
core's busy flag, and ``wake`` on every dispatch. The equivalence suite
(``tests/power/test_dpm_equivalence.py``) drives this reference and
:class:`repro.power.dpm.DpmPolicy` through the same schedules and
requires identical states and idle clocks, bitwise.
"""

from __future__ import annotations

from repro.power.components import CoreState


class NaiveDpm:
    """Per-quantum fixed-timeout sleep controller."""

    def __init__(self, core_names, timeout: float, enabled: bool = True) -> None:
        self.core_names = list(core_names)
        self.timeout = timeout
        self.enabled = enabled
        self.idle_since = {name: 0.0 for name in self.core_names}
        self.states = {name: CoreState.IDLE for name in self.core_names}

    def observe(self, now: float, busy: dict[str, bool]) -> dict[str, CoreState]:
        """Update states given which cores were busy in the last quantum."""
        for name in self.core_names:
            if busy.get(name, False):
                self.states[name] = CoreState.ACTIVE
                self.idle_since[name] = now
            else:
                idle_for = now - self.idle_since[name]
                if self.enabled and idle_for >= self.timeout:
                    self.states[name] = CoreState.SLEEP
                else:
                    if self.states[name] is not CoreState.SLEEP:
                        self.states[name] = CoreState.IDLE
                    elif not self.enabled:
                        self.states[name] = CoreState.IDLE
        return dict(self.states)

    def wake(self, name: str, now: float) -> None:
        """Wake a core because work was dispatched to it."""
        self.states[name] = CoreState.ACTIVE
        self.idle_since[name] = now
