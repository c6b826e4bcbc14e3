"""DPM fixed-timeout policy (200 ms, Section V)."""

import pytest

from repro.errors import ConfigurationError
from repro.power.components import CoreState
from repro.power.dpm import DpmPolicy

CORES = ["core0", "core1"]


class TestTimeout:
    def test_sleeps_after_timeout(self):
        dpm = DpmPolicy(CORES, timeout=0.2)
        dpm.observe(0.0, [0.0, 0.0], [True, True])
        asleep = dpm.observe(0.3, [None, 0.3], [False, True])
        assert asleep == [True, False]
        assert dpm.state("core0") is CoreState.SLEEP
        assert dpm.state("core1") is CoreState.ACTIVE

    def test_stays_idle_before_timeout(self):
        dpm = DpmPolicy(CORES, timeout=0.2)
        dpm.observe(0.0, [0.0, 0.0], [True, True])
        asleep = dpm.observe(0.1, [None, None], [False, False])
        assert asleep == [False, False]
        assert dpm.state("core0") is CoreState.IDLE

    def test_busy_resets_the_clock(self):
        dpm = DpmPolicy(CORES, timeout=0.2)
        dpm.observe(0.0, [0.0, None], [True, False])
        # Busy again in a quantum ending at 0.15, idle since.
        dpm.observe(0.3, [0.15, None], [False, False])
        assert dpm.state("core0") is CoreState.IDLE  # Only idle 0.15 s.

    def test_wake_on_dispatch(self):
        dpm = DpmPolicy(CORES, timeout=0.2)
        dpm.observe(0.5, [None, None], [False, False])
        assert dpm.state("core0") is CoreState.SLEEP
        dpm.wake("core0", 0.6)
        assert dpm.state("core0") is CoreState.ACTIVE

    def test_dispatch_event_restarts_the_clock(self):
        dpm = DpmPolicy(CORES, timeout=0.2)
        dpm.observe(0.5, [None, None], [False, False])
        # Dispatched at 0.55 but did no work before the interval ended.
        asleep = dpm.observe(0.6, [0.55, None], [False, False])
        assert asleep == [False, True]
        assert dpm.state("core0") is CoreState.IDLE


class TestDisabled:
    def test_never_sleeps_when_disabled(self):
        """The paper runs DPM only for the Figure 7 study."""
        dpm = DpmPolicy(CORES, timeout=0.2, enabled=False)
        dpm.observe(0.0, [None, None], [False, False])
        asleep = dpm.observe(10.0, [None, None], [False, False])
        assert asleep == [False, False]
        assert dpm.state("core0") is CoreState.IDLE


class TestValidation:
    def test_rejects_bad_timeout(self):
        with pytest.raises(ConfigurationError):
            DpmPolicy(CORES, timeout=0.0)

    def test_rejects_empty_cores(self):
        with pytest.raises(ConfigurationError):
            DpmPolicy([])

    def test_unknown_core(self):
        dpm = DpmPolicy(CORES)
        with pytest.raises(ConfigurationError):
            dpm.wake("core9", 0.0)
        with pytest.raises(ConfigurationError):
            dpm.state("core9")

    def test_states_returns_copy(self):
        dpm = DpmPolicy(CORES)
        states = dpm.states()
        states["core0"] = CoreState.SLEEP
        assert dpm.state("core0") is not CoreState.SLEEP

    def test_observe_needs_one_entry_per_core(self):
        dpm = DpmPolicy(CORES)
        with pytest.raises(ConfigurationError, match="one entry per core"):
            dpm.observe(0.1, [None], [False])
