"""Crash-consistent JSONL plumbing (repro.io.jsonl)."""

import json

import pytest

from repro.io import jsonl
from repro.io.jsonl import (
    JsonlAppender,
    atomic_write_text,
    json_line,
    read_jsonl,
    truncate_to_consistent,
)


class TestAppender:
    def test_appends_whole_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JsonlAppender(path) as appender:
            appender.append({"a": 1})
            appender.append({"b": 2}, {"c": 3})
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        assert entries == [{"a": 1}, {"b": 2}, {"c": 3}]

    def test_append_after_close_is_an_error(self, tmp_path):
        appender = JsonlAppender(tmp_path / "j.jsonl")
        appender.close()
        with pytest.raises(ValueError, match="closed"):
            appender.append({"a": 1})

    def test_empty_append_is_noop(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JsonlAppender(path) as appender:
            appender.append()
        assert path.read_text() == ""

    def test_floats_round_trip_exactly(self, tmp_path):
        path = tmp_path / "j.jsonl"
        value = 0.1 + 0.2  # not representable prettily
        with JsonlAppender(path) as appender:
            appender.append({"v": value})
        assert read_jsonl(path).entries[0]["v"] == value


class TestTolerantRead:
    def test_clean_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json_line({"a": 1}) + "\n" + json_line({"b": 2}) + "\n")
        document = read_jsonl(path)
        assert not document.torn
        assert len(document) == 2

    def test_torn_trailing_line_is_reported_not_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json_line({"a": 1}) + "\n" + '{"b": 2, "tor')
        document = read_jsonl(path)
        assert document.torn
        assert document.entries == [{"a": 1}]
        assert document.torn_line.startswith('{"b"')

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json_line({"a": 1}) + "\n\n" + json_line({"b": 2}) + "\n")
        assert len(read_jsonl(path)) == 2


class TestTruncateToConsistent:
    def test_repairs_torn_file_in_place(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json_line({"a": 1}) + "\n" + '{"torn')
        document = truncate_to_consistent(path)
        assert document.entries == [{"a": 1}]
        assert path.read_text() == json_line({"a": 1}) + "\n"
        assert not read_jsonl(path).torn

    def test_clean_file_is_untouched(self, tmp_path):
        path = tmp_path / "j.jsonl"
        text = json_line({"a": 1}) + "\n"
        path.write_text(text)
        truncate_to_consistent(path)
        assert path.read_text() == text


class TestAtomicWriteText:
    def _record(self, monkeypatch):
        """Record fsync and replace calls, in order, and still perform them."""
        calls = []
        real_fsync, real_replace = jsonl.os.fsync, jsonl.os.replace

        def fsync(fd):
            calls.append("fsync")
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(jsonl.os, "fsync", fsync)
        monkeypatch.setattr(jsonl.os, "replace", replace)
        return calls

    def test_fsyncs_the_temp_before_the_rename(self, tmp_path, monkeypatch):
        calls = self._record(monkeypatch)
        path = tmp_path / "j.jsonl"
        path.write_text("old\n")
        atomic_write_text(path, "new\n")
        assert calls == ["fsync", "replace"]
        assert path.read_text() == "new\n"
        assert list(tmp_path.iterdir()) == [path]  # No temp left behind.

    def test_torn_line_repair_goes_through_it(self, tmp_path, monkeypatch):
        calls = self._record(monkeypatch)
        path = tmp_path / "j.jsonl"
        path.write_text(json_line({"a": 1}) + "\n" + '{"torn')
        truncate_to_consistent(path)
        assert calls == ["fsync", "replace"]
