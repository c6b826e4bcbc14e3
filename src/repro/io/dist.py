"""On-disk formats of the distributed campaign subsystem.

A campaign directory (usually on a filesystem shared by every worker
host) is laid out as::

    campaign/
      ledger.jsonl          # the work ledger: header + one shard line each
      shards/<shard>.jsonl  # per-shard result journals (run rows + fold payloads)
      leases/<shard>.json   # live leases (exclusive-create claim files)

The **ledger** is written once by the planner (:mod:`repro.dist.plan`)
and embeds the full sweep-spec payload, so a worker needs nothing but
the directory to reconstruct exactly the campaign's expansion. Shard
identities are fingerprints derived from the spec's SHA-256
fingerprint plus the shard's run-index range, so journals and leases
can never be attached to the wrong campaign or the wrong slice of it.

A **shard journal** is an append-only JSONL file written through
:class:`repro.io.jsonl.JsonlAppender` (flush+fsync per record): a
header, one ``run`` line per executed run — carrying the deterministic
export row *and* the per-aggregator fold payloads the merger replays —
and a final ``complete`` line. No ``complete`` line means the writing
worker died; the shard is re-executed from scratch after its lease
goes stale, so torn partial journals are simply overwritten.

A **lease** is claimed by `O_CREAT|O_EXCL` file creation — atomic on
POSIX local filesystems and NFSv3+ — and carries the worker id and a
wall-clock deadline. Workers refresh their lease between runs; any
worker may reclaim (rename away + delete) a lease whose deadline has
passed, which is how crashed workers' chunks return to the pool.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.errors import ConfigurationError
from repro.io.jsonl import JsonlAppender, atomic_write_text, json_line, read_jsonl

LEDGER_NAME = "ledger.jsonl"
SHARDS_DIR = "shards"
LEASES_DIR = "leases"

LEDGER_FORMAT = "repro-dist-ledger"
SHARD_FORMAT = "repro-dist-shard"
DIST_VERSION = 1


def shard_fingerprint(spec_fingerprint: str, start: int, stop: int) -> str:
    """A shard's identity: spec fingerprint x run-index range.

    Sixteen hex chars of SHA-256 — collision-safe within a campaign
    (shards of one campaign differ in their ranges by construction)
    and across campaigns (different spec fingerprints).
    """
    digest = hashlib.sha256(
        f"{spec_fingerprint}:{start}:{stop}".encode()
    ).hexdigest()
    return digest[:16]


@dataclass(frozen=True)
class Shard:
    """One leased unit of campaign work: runs ``[start, stop)``."""

    index: int
    shard_id: str
    start: int
    stop: int

    @property
    def n_runs(self) -> int:
        return self.stop - self.start


@dataclass
class Ledger:
    """A parsed campaign ledger (header + ordered shards)."""

    directory: Path
    header: dict
    shards: list[Shard]

    @property
    def name(self) -> str:
        return str(self.header.get("name", ""))

    @property
    def fingerprint(self) -> str:
        return str(self.header.get("fingerprint", ""))

    @property
    def n_runs(self) -> int:
        return int(self.header.get("n_runs", 0))

    @property
    def chunk_size(self) -> int:
        return int(self.header.get("chunk_size", 0))

    @property
    def spec_payload(self) -> dict:
        return self.header.get("spec", {})

    @property
    def aggregator_specs(self) -> list[dict]:
        return list(self.header.get("aggregators", []))

    def shard_journal_path(self, shard: Shard) -> Path:
        return self.directory / SHARDS_DIR / f"{shard.shard_id}.jsonl"

    def lease_path(self, shard: Shard) -> Path:
        return self.directory / LEASES_DIR / f"{shard.shard_id}.json"


def write_ledger(directory: Union[str, Path], header: dict, shards: list[Shard]) -> None:
    """Create a campaign directory and write its ledger atomically."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / SHARDS_DIR).mkdir(exist_ok=True)
    (directory / LEASES_DIR).mkdir(exist_ok=True)
    lines = [json_line(header)]
    lines.extend(
        json_line(
            {
                "kind": "shard",
                "index": shard.index,
                "shard": shard.shard_id,
                "start": shard.start,
                "stop": shard.stop,
            }
        )
        for shard in shards
    )
    atomic_write_text(directory / LEDGER_NAME, "\n".join(lines) + "\n")


def read_ledger(directory: Union[str, Path]) -> Ledger:
    """Parse a campaign directory's ledger, validating its format."""
    directory = Path(directory)
    path = directory / LEDGER_NAME
    if not path.is_file():
        raise ConfigurationError(
            f"{directory} is not a campaign directory (no {LEDGER_NAME}); "
            "create one with 'repro dist plan'"
        )
    document = read_jsonl(path)
    if not document.entries:
        raise ConfigurationError(f"ledger {path} is empty")
    header = document.entries[0]
    if (
        header.get("kind") != "header"
        or header.get("format") != LEDGER_FORMAT
    ):
        raise ConfigurationError(f"{path} is not a repro dist ledger")
    if header.get("version") != DIST_VERSION:
        raise ConfigurationError(
            f"unsupported ledger version {header.get('version')!r}"
        )
    shards = [
        Shard(
            index=int(entry["index"]),
            shard_id=str(entry["shard"]),
            start=int(entry["start"]),
            stop=int(entry["stop"]),
        )
        for entry in document.entries[1:]
        if entry.get("kind") == "shard"
    ]
    shards.sort(key=lambda shard: shard.start)
    expected = 0
    for shard in shards:
        if shard.start != expected:
            raise ConfigurationError(
                f"ledger {path} shards do not tile the run range: "
                f"expected a shard starting at {expected}, got {shard.start}"
            )
        expected = shard.stop
    if expected != int(header.get("n_runs", 0)):
        raise ConfigurationError(
            f"ledger {path} shards cover {expected} runs "
            f"but the header declares {header.get('n_runs')}"
        )
    return Ledger(directory=directory, header=header, shards=shards)


# --- shard journals --------------------------------------------------------


@dataclass
class ShardJournal:
    """A parsed per-shard result journal."""

    shard_id: str
    worker: str
    rows: list[dict] = field(default_factory=list)
    payloads: list[dict] = field(default_factory=list)  # per-run agg payloads
    elapsed: list[float] = field(default_factory=list)
    complete: bool = False
    torn: bool = False
    #: Metric snapshot-diff journaled by a telemetry-enabled worker
    #: (``None`` for the historical, telemetry-off journal format).
    telemetry: Optional[dict] = None

    @property
    def n_runs(self) -> int:
        return len(self.rows)

    @property
    def elapsed_s(self) -> float:
        """Total journaled run wall time for this shard."""
        return sum(self.elapsed)


def shard_journal_header(
    campaign_fingerprint: str, shard: Shard, worker: str
) -> dict:
    return {
        "kind": "header",
        "format": SHARD_FORMAT,
        "version": DIST_VERSION,
        "campaign": campaign_fingerprint,
        "shard": shard.shard_id,
        "start": shard.start,
        "stop": shard.stop,
        "worker": worker,
    }


def open_shard_journal(
    path: Union[str, Path],
    campaign_fingerprint: str,
    shard: Shard,
    worker: str,
) -> JsonlAppender:
    """Start a shard journal fresh (truncating any dead worker's partial
    attempt) and return the appender for its run/complete records."""
    path = Path(path)
    with open(path, "w") as handle:
        handle.write(
            json_line(shard_journal_header(campaign_fingerprint, shard, worker))
            + "\n"
        )
        handle.flush()
        os.fsync(handle.fileno())
    return JsonlAppender(path)


def read_shard_journal(
    path: Union[str, Path],
    shard: Optional[Shard] = None,
    campaign_fingerprint: Optional[str] = None,
) -> Optional[ShardJournal]:
    """Parse a shard journal; ``None`` when the file does not exist.

    Tolerates a torn trailing line (the writer was killed mid-append).
    When ``shard``/``campaign_fingerprint`` are given, a journal that
    belongs to a different shard or campaign is a hard error — results
    must never silently merge across campaigns.
    """
    path = Path(path)
    if not path.is_file():
        return None
    document = read_jsonl(path)
    if not document.entries:
        return ShardJournal(shard_id="", worker="", torn=document.torn)
    header = document.entries[0]
    if (
        header.get("kind") != "header"
        or header.get("format") != SHARD_FORMAT
    ):
        raise ConfigurationError(f"{path} is not a repro dist shard journal")
    if shard is not None and header.get("shard") != shard.shard_id:
        raise ConfigurationError(
            f"shard journal {path} belongs to shard "
            f"{header.get('shard')!r}, not {shard.shard_id!r}"
        )
    if (
        campaign_fingerprint is not None
        and header.get("campaign") != campaign_fingerprint
    ):
        raise ConfigurationError(
            f"shard journal {path} belongs to a different campaign "
            f"(fingerprint {str(header.get('campaign'))[:12]}... vs "
            f"{campaign_fingerprint[:12]}...)"
        )
    journal = ShardJournal(
        shard_id=str(header.get("shard", "")),
        worker=str(header.get("worker", "")),
        torn=document.torn,
    )
    for entry in document.entries[1:]:
        kind = entry.get("kind")
        if kind == "run":
            journal.rows.append(entry["row"])
            journal.payloads.append(entry.get("agg", {}))
            journal.elapsed.append(float(entry.get("elapsed_s", 0.0)))
        elif kind == "telemetry":
            journal.telemetry = entry.get("metrics", {})
        elif kind == "complete":
            journal.complete = True
    return journal


# --- leases ----------------------------------------------------------------


@dataclass
class LeaseInfo:
    """A parsed lease file (``parseable=False`` means torn content)."""

    worker: str = ""
    acquired: float = 0.0
    ttl: float = 0.0
    deadline: float = 0.0
    parseable: bool = True

    def stale(self, now: float) -> bool:
        """Expired — or torn, which only a crashed claimer leaves behind
        (claims are tiny single-write files)."""
        return not self.parseable or now >= self.deadline

    def heartbeat_age(self, now: float) -> Optional[float]:
        """Seconds since the holder last refreshed (claimed or extended)
        this lease, or ``None`` for a torn lease. Refreshes rewrite the
        deadline as ``refresh_time + ttl``, so the last heartbeat is
        recoverable as ``deadline - ttl`` without a new field."""
        if not self.parseable:
            return None
        return max(0.0, now - (self.deadline - self.ttl))


def read_lease(path: Union[str, Path]) -> Optional[LeaseInfo]:
    """Parse a lease file; ``None`` when it does not exist."""
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        return None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return LeaseInfo(parseable=False)
    return LeaseInfo(
        worker=str(payload.get("worker", "")),
        acquired=float(payload.get("acquired", 0.0)),
        ttl=float(payload.get("ttl", 0.0)),
        deadline=float(payload.get("deadline", 0.0)),
    )


def _lease_payload(worker: str, ttl: float, now: float) -> dict:
    return {"worker": worker, "acquired": now, "ttl": ttl, "deadline": now + ttl}


def try_claim_lease(
    path: Union[str, Path], worker: str, ttl: float, now: Optional[float] = None
) -> Optional[LeaseInfo]:
    """Claim a shard by exclusive-creating its lease file.

    Returns the claimed lease, or ``None`` when another worker already
    holds it (the single atomic arbitration point of the protocol).
    """
    now = time.time() if now is None else now
    payload = _lease_payload(worker, ttl, now)
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return None
    with os.fdopen(fd, "w") as handle:
        handle.write(json.dumps(payload))
        handle.flush()
        os.fsync(handle.fileno())
    return LeaseInfo(
        worker=worker, acquired=now, ttl=ttl, deadline=now + ttl
    )


def refresh_lease(
    path: Union[str, Path], worker: str, ttl: float, now: Optional[float] = None
) -> bool:
    """Extend a held lease's deadline (atomic rewrite).

    Returns ``False`` — without touching the file — when the lease is
    gone or now belongs to another worker (it expired and was
    reclaimed), in which case the caller must abandon the shard: the
    new owner is re-executing it.
    """
    now = time.time() if now is None else now
    path = Path(path)
    current = read_lease(path)
    if current is None or (current.parseable and current.worker != worker):
        return False
    tmp = path.with_name(path.name + f".refresh.{os.getpid()}")
    tmp.write_text(json.dumps(_lease_payload(worker, ttl, now)))
    os.replace(tmp, path)
    return True


def release_lease(path: Union[str, Path], worker: Optional[str] = None) -> None:
    """Drop a held lease (idempotent).

    With ``worker`` given, the lease is removed only while it still
    belongs to that worker — a lease that expired and was reclaimed by
    someone else must NOT be deleted out from under its new owner (that
    would expose the shard to a third claimer while it is being
    re-executed).
    """
    path = Path(path)
    if worker is not None:
        current = read_lease(path)
        if current is None or not current.parseable or current.worker != worker:
            return
    path.unlink(missing_ok=True)


def reclaim_stale_lease(
    path: Union[str, Path], now: Optional[float] = None
) -> bool:
    """Remove a stale lease so its shard can be re-claimed.

    Rename-away-then-delete, so two workers racing to reclaim the same
    lease cannot both think they removed it: the loser's rename raises
    ``FileNotFoundError`` and reports failure. Returns whether *this*
    caller retired the lease (it should then try to claim).
    """
    now = time.time() if now is None else now
    path = Path(path)
    lease = read_lease(path)
    if lease is None or not lease.stale(now):
        return False
    tombstone = path.with_name(
        f"{path.name}.stale.{os.getpid()}.{os.urandom(4).hex()}"
    )
    try:
        os.rename(path, tombstone)
    except FileNotFoundError:
        return False  # Lost the reclaim race; someone else retired it.
    tombstone.unlink(missing_ok=True)
    return True
