"""Hardened JSON-lines plumbing shared by every journal in the repo.

Both the sweep checkpoint (:mod:`repro.sweep.runner`) and the
distributed campaign ledgers/shard journals (:mod:`repro.io.dist`) are
append-only JSONL files that must survive being killed mid-write:

* :class:`JsonlAppender` writes each batch of lines as **one** buffered
  write followed by flush + fsync, so a crash can tear at most the
  final line of the file — never interleave or reorder lines;
* :func:`read_jsonl` parses a journal back, stopping at (and
  reporting) a torn trailing line instead of crashing, so resume and
  merge paths recover from kills without manual surgery;
* :func:`atomic_write_text` is the one whole-file rewrite (journal
  headers, torn-line repair, ledgers): a crash leaves the old file or
  the new one, never a torn mix.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Optional, Union


def json_line(payload: dict) -> str:
    """One canonical compact JSONL line (no trailing newline)."""
    return json.dumps(payload, separators=(",", ":"))


class JsonlAppender:
    """Appends whole JSONL records to a journal, crash-consistently.

    Every :meth:`append` call joins its payloads into a single string
    and hands it to the OS as one write, then flushes and fsyncs — so
    a kill between two appends leaves a clean journal, and a kill
    *during* an append tears only the trailing line (which
    :func:`read_jsonl` detects and discards). Grouping related records
    into one ``append`` makes them land atomically-together or not at
    all on all mainstream filesystems.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle: Optional[IO[str]] = open(self.path, "a")

    def append(self, *payloads: dict) -> None:
        """Write the payload lines as one flush+fsync'd write."""
        if self._handle is None:
            raise ValueError(f"journal {self.path} is closed")
        if not payloads:
            return
        text = "".join(json_line(payload) + "\n" for payload in payloads)
        self._handle.write(text)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlAppender":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class JsonlDocument:
    """A parsed journal: clean entries plus what (if anything) was torn."""

    entries: list[dict]
    torn: bool = False
    torn_line: str = ""

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def read_jsonl(path: Union[str, Path]) -> JsonlDocument:
    """Read a JSONL journal, tolerating a torn trailing line.

    A record that fails to parse ends the journal: it (and anything
    after it, which a single-writer append-only journal cannot have
    produced cleanly) is discarded and reported via ``torn`` so callers
    can log, truncate, or re-execute as appropriate.
    """
    document = JsonlDocument(entries=[])
    with open(path) as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                entry = json.loads(stripped)
            except json.JSONDecodeError:
                document.torn = True
                document.torn_line = stripped
                break
            document.entries.append(entry)
    return document


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Replace ``path``'s contents with ``text``, crash-consistently.

    Writes a same-directory temp file, fsyncs it, then renames it over
    ``path``: the fsync comes first so that, after a power loss, the
    rename can never expose a file whose data blocks were not yet on
    disk. Readers see the old file or the new one, never a torn mix.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def truncate_to_consistent(path: Union[str, Path]) -> JsonlDocument:
    """Drop a torn trailing line from a journal in place.

    Reads the journal tolerantly and, when a torn line is found,
    rewrites the file to its clean prefix through
    :func:`atomic_write_text`, so the repair itself cannot tear.
    Returns the parsed clean document either way.
    """
    document = read_jsonl(path)
    if document.torn:
        atomic_write_text(
            path, "".join(json_line(entry) + "\n" for entry in document.entries)
        )
    return document
