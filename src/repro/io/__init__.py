"""Result and trace serialization (JSON summaries, CSV time series),
for single runs (:mod:`repro.io.serialize`), streaming sweep exports
(:mod:`repro.io.sweep`, also what ``repro batch`` writes),
crash-consistent JSONL journals
(:mod:`repro.io.jsonl`), and distributed campaign ledgers/shard
journals/leases (:mod:`repro.io.dist`)."""

from repro.io.jsonl import JsonlAppender, json_line, read_jsonl, truncate_to_consistent
from repro.io.serialize import (
    load_result,
    result_from_payload,
    result_payload,
    result_summary,
    save_result,
    write_timeseries_csv,
)
from repro.io.sweep import (
    SweepCsvWriter,
    config_descriptor,
    save_sweep_json,
    sweep_row,
    write_sweep_csv,
)

__all__ = [
    "result_summary",
    "result_payload",
    "result_from_payload",
    "save_result",
    "load_result",
    "write_timeseries_csv",
    "config_descriptor",
    "sweep_row",
    "SweepCsvWriter",
    "write_sweep_csv",
    "save_sweep_json",
    "JsonlAppender",
    "json_line",
    "read_jsonl",
    "truncate_to_consistent",
]
