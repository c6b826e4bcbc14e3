"""The per-interval DPM update against the retained per-quantum reference.

The engine closes each control interval with one
:meth:`DpmPolicy.observe`, given each core's last event (a dispatch at
a quantum's start or a busy quantum's end, latest by quantum index) and
whether its last quantum was busy. ``tests/naive_dpm.py`` keeps the
per-quantum controller the engine used to call every 10 ms. Driven
through the same schedules with the engine's time arithmetic, both must
end every interval with the same states and idle clocks, bitwise.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from naive_dpm import NaiveDpm

from repro.power.components import CoreState
from repro.power.dpm import DpmPolicy

N_CORES = 4
NAMES = [f"core{i}" for i in range(N_CORES)]
INTERVAL = 0.1
QUANTUM = 0.01
STEPS = 10

# One quantum is a bit mask: bit i dispatches to core i at the
# quantum's start, bit N_CORES + i makes core i busy in it. Each
# interval masks out the cores it leaves alone, so long idle runs (and
# sleeps) are common.
quantum = st.integers(0, (1 << 2 * N_CORES) - 1)
interval = st.tuples(
    st.integers(0, (1 << N_CORES) - 1),
    st.lists(quantum, min_size=STEPS, max_size=STEPS),
).map(lambda t: [m & (t[0] | t[0] << N_CORES) for m in t[1]])
schedules = st.lists(interval, min_size=1, max_size=20)


def _replay(schedule, timeout, enabled):
    """Run both controllers over ``schedule``; compare at every interval end."""
    naive = NaiveDpm(NAMES, timeout, enabled)
    dpm = DpmPolicy(NAMES, timeout=timeout, enabled=enabled)
    for k, quanta in enumerate(schedule):
        t_start = k * INTERVAL
        last_event = [None] * N_CORES
        for s, mask in enumerate(quanta):
            now = t_start + s * QUANTUM
            end = now + QUANTUM
            for i in range(N_CORES):
                if mask >> i & 1:
                    naive.wake(NAMES[i], now)
                    last_event[i] = now
            busy = [bool(mask >> (N_CORES + i) & 1) for i in range(N_CORES)]
            for i in range(N_CORES):
                if busy[i]:
                    last_event[i] = end
            naive.observe(end, dict(zip(NAMES, busy)))
        asleep = dpm.observe(end, last_event, busy)
        assert dpm._states == [naive.states[n] for n in NAMES], k
        assert dpm._idle_since == [naive.idle_since[n] for n in NAMES], k
        assert asleep == [naive.states[n] is CoreState.SLEEP for n in NAMES], k
    return dpm


class TestPerIntervalMatchesPerQuantum:
    @settings(max_examples=200, deadline=None)
    @given(
        schedule=schedules,
        timeout=st.sampled_from([0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]),
        enabled=st.booleans(),
    )
    def test_random_schedules(self, schedule, timeout, enabled):
        dpm = _replay(schedule, timeout, enabled)
        if not enabled:
            assert CoreState.SLEEP not in dpm._states

    def test_dispatch_right_after_a_busy_quantum(self):
        # core0 is busy in quantum 5, then dispatched to in quantum 6 and
        # idle after. Its clock restarts at the dispatch (quantum 6's
        # start, 0.06), which is an ulp *earlier* than quantum 5's end
        # (0.060000000000000005): the latest event is the latest by
        # quantum index, not by time.
        idle = [0] * STEPS
        quanta = list(idle)
        quanta[5] = 1 << N_CORES  # core0 busy
        quanta[6] = 1  # core0 dispatched to
        assert 0.0 + 6 * QUANTUM < (0.0 + 5 * QUANTUM) + QUANTUM
        for timeout in (0.05, 0.2, 0.25):
            for enabled in (True, False):
                dpm = _replay([quanta, idle, idle, idle], timeout, enabled)
        dpm = _replay([quanta], 0.2, True)
        assert dpm._idle_since[0] == 6 * QUANTUM

    def test_long_idle_sleeps_and_dispatch_wakes(self):
        idle = [0] * STEPS
        woken = [1 << 1] + idle[1:]  # core1 dispatched to, never busy
        dpm = _replay([idle, idle, idle, woken], 0.2, True)
        assert dpm._states == [
            CoreState.SLEEP, CoreState.IDLE, CoreState.SLEEP, CoreState.SLEEP
        ]
