"""Worker loop: claim shard leases, execute chunks, journal results.

A worker is stateless by design — everything it needs is in the
campaign directory. It scans the ledger's shards in canonical order,
claims the first claimable lease (reclaiming stale ones left by
crashed workers), executes the shard's runs through
:class:`~repro.runner.BatchRunner` with one
:class:`~repro.sim.cache.CharacterizationCache` pre-warmed and kept
across chunks, and journals each run's export row plus its
per-aggregator fold payloads. The journal's final ``complete`` line is
the only thing that marks a shard done, so a worker killed anywhere
mid-chunk leaves work that is simply re-executed by whoever reclaims
the lease — determinism makes the re-execution indistinguishable.

Run any number of these concurrently, on any number of hosts sharing
the directory; ``repro dist work`` is the CLI face.
"""

from __future__ import annotations

import contextlib
import os
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro.dist.plan import ledger_spec
from repro.errors import ConfigurationError
from repro.io.dist import (
    Ledger,
    Shard,
    read_lease,
    read_ledger,
    read_shard_journal,
    reclaim_stale_lease,
    refresh_lease,
    release_lease,
    open_shard_journal,
    try_claim_lease,
)
from repro.runner.batch import BatchRunner
from repro.sim.cache import CharacterizationCache
from repro.sweep.aggregate import Aggregator, aggregator_from_spec
from repro.sweep.runner import FoldReducer, run_record
from repro.sweep.spec import SweepPoint, SweepSpec
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace

#: Default seconds a lease stays valid without a refresh. Refreshes
#: happen after every run, so this only needs to exceed one *run*, not
#: one chunk.
DEFAULT_LEASE_TTL = 300.0


class _LeaseLost(Exception):
    """This worker's lease expired and another worker reclaimed it."""


@dataclass
class WorkerReport:
    """What one :func:`run_worker` session did."""

    worker_id: str
    shards_executed: list[str] = field(default_factory=list)
    shards_reclaimed: list[str] = field(default_factory=list)
    runs_executed: int = 0
    wall_time: float = 0.0


def default_worker_id() -> str:
    """host:pid — unique across the hosts sharing a campaign directory."""
    return f"{socket.gethostname()}:{os.getpid()}"


def _execute_shard(
    ledger: Ledger,
    spec: SweepSpec,
    aggregators: list[Aggregator],
    shard: Shard,
    cache: CharacterizationCache,
    worker_id: str,
    lease_ttl: float,
    max_workers: Optional[int],
    progress: Optional[Callable[[SweepPoint, int, float], None]],
) -> int:
    """Run one shard's chunk and journal it; returns runs executed."""
    chunk = list(spec.iter_points(shard.start, shard.stop))
    lease_path = ledger.lease_path(shard)
    metrics_before = _metrics.snapshot()
    appender = open_shard_journal(
        ledger.shard_journal_path(shard), ledger.fingerprint, shard, worker_id
    )
    try:
        configs = [point.config for point in chunk]
        batch = BatchRunner(configs, max_workers=max_workers, cache=cache)
        # Each run collapses to its row + fold payloads on whatever
        # process executed it (payload-only transport); sweep_row and
        # fold_payload are pure functions of (point, result), so the
        # journal line does not depend on where the run executed.
        reducer = FoldReducer([agg.spec() for agg in aggregators])
        tags = [(point.index, point.key) for point in chunk]
        with contextlib.closing(batch.iter_reduced(reducer, tags)) as runs:
            for point, run in zip(chunk, runs):
                # Re-assert ownership *before* touching the journal:
                # a lost lease means another worker reclaimed the shard
                # and owns its journal now, so this attempt must stop
                # writing immediately and never finalize.
                if not refresh_lease(lease_path, worker_id, lease_ttl):
                    raise _LeaseLost(shard.shard_id)
                appender.append(run_record(point, run))
                if progress is not None:
                    progress(point, shard.index, run.elapsed)
        if not refresh_lease(lease_path, worker_id, lease_ttl):
            raise _LeaseLost(shard.shard_id)
        # With telemetry enabled the shard journals its metric delta so
        # the merger can report a campaign-wide breakdown; disabled (the
        # default), the journal stays byte-identical to the historical
        # format.
        if _trace.enabled():
            appender.append(
                {
                    "kind": "telemetry",
                    "worker": worker_id,
                    "metrics": _metrics.snapshot_diff(
                        metrics_before, _metrics.snapshot()
                    ),
                }
            )
        appender.append(
            {"kind": "complete", "shard": shard.shard_id, "n_runs": len(chunk)}
        )
    finally:
        appender.close()
    return len(chunk)


def run_worker(
    directory: Union[str, Path],
    worker_id: Optional[str] = None,
    max_workers: Optional[int] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_shards: Optional[int] = None,
    poll_interval: float = 0.5,
    wait: bool = True,
    progress: Optional[Callable[[SweepPoint, int, float], None]] = None,
) -> WorkerReport:
    """Work a campaign until it is done (or ``max_shards`` is reached).

    Parameters
    ----------
    directory:
        The campaign directory (``repro dist plan`` output), shared
        with every other worker.
    worker_id:
        Identity recorded in leases/journals; defaults to host:pid.
    max_workers:
        Process fan-out *within* each chunk, as for
        :class:`~repro.runner.BatchRunner` (``None``/1 = serial).
    lease_ttl:
        Seconds before an unrefreshed lease counts as stale. Leases
        refresh after every run, so this bounds how long a *crashed*
        worker blocks its shard, and must exceed one run's wall time.
    max_shards:
        Execute at most this many shards this session, then return.
    poll_interval:
        Seconds to sleep between scans while other workers hold all
        remaining shards.
    wait:
        When ``False``, return as soon as a scan claims nothing
        instead of waiting for other workers' shards to finish.
    progress:
        Callback ``(point, shard_index, elapsed_s)`` per completed run.

    Every run executes exactly as planned, solver tier included: the
    tier is part of the ledger's spec and fingerprint (``repro dist
    plan --solver``), so all workers of a campaign run the same tier.
    """
    if lease_ttl <= 0:
        raise ConfigurationError("lease_ttl must be positive")
    if max_shards is not None and max_shards < 1:
        raise ConfigurationError("max_shards must be >= 1")
    start = time.perf_counter()
    ledger = read_ledger(directory)
    spec = ledger_spec(ledger)
    aggregators = [aggregator_from_spec(s) for s in ledger.aggregator_specs]
    cache = CharacterizationCache()
    report = WorkerReport(worker_id=worker_id or default_worker_id())
    # Completeness is monotonic, so remember finished shards across
    # scans: a waiting worker must not re-parse every done journal
    # (O(campaign output)) once per poll interval.
    done: set[str] = set()

    while True:
        claimed_any = False
        all_done = True
        for shard in ledger.shards:
            if shard.shard_id in done:
                continue
            # Check the (tiny) lease file before touching the journal:
            # a validly-held shard's growing journal must not be
            # re-parsed on every poll by every waiting worker.
            lease_path = ledger.lease_path(shard)
            held = read_lease(lease_path)
            if held is not None and not held.stale(time.time()):
                all_done = False
                continue  # Validly leased by someone else.
            journal = read_shard_journal(
                ledger.shard_journal_path(shard), shard, ledger.fingerprint
            )
            if journal is not None and journal.complete:
                if held is not None:
                    # Crashed after completing but before releasing:
                    # retire the stale lease so it stops drawing scans.
                    reclaim_stale_lease(lease_path)
                done.add(shard.shard_id)
                continue
            all_done = False
            if held is not None:
                if reclaim_stale_lease(lease_path):
                    report.shards_reclaimed.append(shard.shard_id)
                else:
                    continue  # Lost the reclaim race (or it refreshed).
            lease = try_claim_lease(lease_path, report.worker_id, lease_ttl)
            if lease is None:
                continue  # Lost the claim race.
            claimed_any = True
            try:
                # Re-check under the lease: the shard may have been
                # finished between our scan and our claim.
                journal = read_shard_journal(
                    ledger.shard_journal_path(shard), shard, ledger.fingerprint
                )
                if journal is None or not journal.complete:
                    report.runs_executed += _execute_shard(
                        ledger, spec, aggregators, shard, cache,
                        report.worker_id, lease_ttl, max_workers, progress,
                    )
                    report.shards_executed.append(shard.shard_id)
                done.add(shard.shard_id)
            except _LeaseLost:
                pass  # The reclaimer owns the shard now; move on.
            finally:
                # Owner-checked: after _LeaseLost (or a silent expiry)
                # the lease belongs to the reclaiming worker and must
                # survive this release.
                release_lease(lease_path, worker=report.worker_id)
            if (
                max_shards is not None
                and len(report.shards_executed) >= max_shards
            ):
                report.wall_time = time.perf_counter() - start
                return report
        if all_done or (not claimed_any and not wait):
            report.wall_time = time.perf_counter() - start
            return report
        if not claimed_any:
            time.sleep(poll_interval)
