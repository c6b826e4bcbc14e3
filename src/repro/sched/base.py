"""Per-core dispatch queues and the scheduler policy interface."""

from __future__ import annotations

from collections import deque
from typing import Mapping, Protocol, Sequence

from repro.errors import SchedulingError
from repro.workload.threads import Thread


class CoreQueues:
    """Per-core FIFO dispatch queues.

    The head of each queue is the thread currently running on that
    core. Rebalancing policies move threads *from the tail* (waiting
    threads) unless they explicitly migrate the running head (the
    reactive migration policy).
    """

    def __init__(self, core_names: Sequence[str]) -> None:
        if not core_names:
            raise SchedulingError("need at least one core")
        if len(set(core_names)) != len(core_names):
            raise SchedulingError("duplicate core names")
        self._queues: dict[str, deque[Thread]] = {name: deque() for name in core_names}

    @property
    def core_names(self) -> list[str]:
        """All core names, in construction order."""
        return list(self._queues)

    def queue(self, core: str) -> deque[Thread]:
        """The dispatch queue of one core."""
        try:
            return self._queues[core]
        except KeyError:
            raise SchedulingError(f"unknown core {core!r}")

    def enqueue(self, core: str, thread: Thread) -> None:
        """Append a thread to a core's queue."""
        self.queue(core).append(thread)

    def lengths(self) -> dict[str, int]:
        """Queue length (threads, including the running head) per core."""
        return {name: len(q) for name, q in self._queues.items()}

    def total_threads(self) -> int:
        """Total queued threads across all cores."""
        return sum(len(q) for q in self._queues.values())

    def shortest(self) -> str:
        """Core with the fewest queued threads (ties: construction order)."""
        return min(self._queues, key=lambda name: len(self._queues[name]))

    def longest(self) -> str:
        """Core with the most queued threads (ties: construction order)."""
        return max(self._queues, key=lambda name: len(self._queues[name]))

    def move_waiting(self, src: str, dst: str, count: int = 1) -> int:
        """Move up to ``count`` waiting (tail) threads from src to dst.

        Never moves the running head. Returns the number moved.
        """
        if src == dst:
            return 0
        src_q = self.queue(src)
        dst_q = self.queue(dst)
        moved = 0
        while moved < count and len(src_q) > 1:
            dst_q.append(src_q.pop())
            moved += 1
        return moved

    def migrate_running(self, src: str, dst: str, penalty: float = 0.0) -> bool:
        """Move the running head of ``src`` to ``dst`` (a migration).

        Returns False when src has nothing running. The thread's
        migration counter is incremented and ``penalty`` seconds of
        extra work (cold caches, pipeline refill) are charged to it —
        this is why the paper sees reduced throughput under frequent
        temperature-triggered migrations.
        """
        if src == dst:
            return False
        if penalty < 0.0:
            raise SchedulingError("migration penalty must be non-negative")
        src_q = self.queue(src)
        if not src_q:
            return False
        thread = src_q.popleft()
        thread.migrations += 1
        thread.remaining += penalty
        self.queue(dst).append(thread)
        return True


class SchedulerPolicy(Protocol):
    """A scheduling policy invoked at dispatch and once per interval.

    The engine talks to policies purely through this protocol — there
    is no ``isinstance`` dispatch. ``migration_count`` is the declared
    capability that replaced the engine's old ``ReactiveMigration``
    special case: policies that never migrate a running thread simply
    expose a constant ``0`` (a class attribute suffices).

    Policies are registered by key via
    :func:`repro.registry.register_policy`; see ``repro list policies``
    and the README's "Extending repro" section.
    """

    name: str
    #: Running threads moved between cores so far (0 for policies that
    #: never migrate; the engine records this series every interval).
    migration_count: int

    def dispatch_target(
        self,
        queues: CoreQueues,
        core_temperatures: Mapping[str, float],
    ) -> str:
        """Core that should receive a newly arrived thread."""
        ...

    def rebalance(
        self,
        queues: CoreQueues,
        core_temperatures: Mapping[str, float],
        now: float,
    ) -> None:
        """Redistribute queued threads given current temperatures."""
        ...
