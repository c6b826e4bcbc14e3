"""Throttled progress reporting for long-running campaigns.

A fig-scale sweep folds a run every few hundred milliseconds; printing
a line per fold floods terminals and CI logs and, worse, stalls the
fold loop on a slow/blocking stderr (an ssh session, a piped pager).
:class:`ProgressReporter` is the async-friendly middle ground the CLI
commands share:

* updates are **rate-limited** — at most one line per ``min_interval``
  seconds, measured on a monotonic clock, so the cost of reporting is
  bounded regardless of fold rate;
* :meth:`ProgressReporter.finish` bypasses the rate limit, so a
  campaign never ends on a stale ``97/100`` line (callers invoke it
  once at the end);
* ``quiet`` silences the reporter entirely — the CLI commands print
  their own result summary on stdout;
* output goes to *stderr*, keeping stdout clean for result tables and
  shell redirection.

The clock is injectable, so throttling is tested deterministically.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, IO, Optional


class ProgressReporter:
    """Rate-limited ``done/total`` line reporting.

    Parameters
    ----------
    total:
        Total work units (0 = unknown; lines omit the total).
    label:
        Prefix for every line, e.g. the sweep name.
    stream:
        Where lines go (default ``sys.stderr``).
    min_interval:
        Minimum seconds between printed updates.
    quiet:
        Silence the reporter (updates and the final line).
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        total: int,
        label: str = "",
        stream: Optional[IO[str]] = None,
        min_interval: float = 0.25,
        quiet: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.total = int(total)
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = float(min_interval)
        self.quiet = quiet
        self.clock = clock
        self.start = clock()
        self._last_print: Optional[float] = None

    def _format(self, done: int, detail: str) -> str:
        prefix = f"{self.label}: " if self.label else ""
        if self.total > 0:
            pct = 100.0 * done / self.total
            counted = f"{done}/{self.total} ({pct:.0f}%)"
        else:
            counted = str(done)
        suffix = f"  {detail}" if detail else ""
        return f"  {prefix}{counted}{suffix}"

    def update(self, done: int, detail: str = "") -> None:
        """Report progress; prints only if ``min_interval`` has passed."""
        if self.quiet:
            return
        now = self.clock()
        if (
            self._last_print is not None
            and now - self._last_print < self.min_interval
        ):
            return
        self._last_print = now
        print(self._format(done, detail), file=self.stream)

    def finish(self, done: int, detail: str = "") -> None:
        """Report the final state, bypassing the rate limit (so the
        stream never ends on a stale intermediate count)."""
        if self.quiet:
            return
        elapsed = self.clock() - self.start
        summary = detail or f"{elapsed:.1f}s"
        print(self._format(done, summary), file=self.stream)
