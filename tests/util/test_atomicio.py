"""Tests for the shared durable atomic-write path (repro.util.atomicio).

Every JSON artifact the repo writes — BENCH_*.json, trace JSONL, serve
reports, the distributed store's sidecar files — goes
through this one module, so its contract (atomic replace, no torn files,
tmp cleanup on failure) is load-bearing for crash consistency everywhere.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.util.atomicio import atomic_write_json, atomic_write_text


class TestAtomicWriteText:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_replaces_existing(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(path, "x")
        assert path.read_text() == "x"

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "x")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_tmp_cleaned_up_on_write_failure(self, tmp_path, monkeypatch):
        """A failure mid-write must neither leave a tmp file nor touch the
        existing target (the whole point of write-then-rename)."""
        path = tmp_path / "out.txt"
        path.write_text("precious")

        def boom(fd):
            raise OSError("disk full (injected)")

        # Fail at the content fsync: after the tmp write, before the rename.
        monkeypatch.setattr(os, "fsync", boom)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_text(path, "replacement")
        monkeypatch.undo()
        assert path.read_text() == "precious"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_empty_payload(self, tmp_path):
        path = tmp_path / "empty.txt"
        atomic_write_text(path, "")
        assert path.read_text() == ""


class TestAtomicWriteJson:
    def test_round_trips(self, tmp_path):
        path = tmp_path / "out.json"
        payload = {"b": [1, 2], "a": {"nested": True}}
        atomic_write_json(path, payload)
        assert json.loads(path.read_text()) == payload

    def test_trailing_newline_default(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(path, {"x": 1})
        assert path.read_text().endswith("\n")

    def test_no_trailing_newline_opt_out(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(path, {"x": 1}, trailing_newline=False)
        assert not path.read_text().endswith("\n")

    def test_sort_keys_stable_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        atomic_write_json(a, {"z": 1, "a": 2}, sort_keys=True)
        atomic_write_json(b, {"a": 2, "z": 1}, sort_keys=True)
        assert a.read_bytes() == b.read_bytes()


class TestCallersUseAtomicPath:
    """The artifact writers named by the bug report all route through
    atomicio (no bare open(..., 'w') left on these paths)."""

    def test_trace_write_jsonl(self, tmp_path):
        from repro.observability.trace import RecordingTracer, read_jsonl, write_jsonl

        tracer = RecordingTracer()
        with tracer.span("root"):
            tracer.event("ping", value=1)
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, tracer.export())
        assert [e["name"] for e in read_jsonl(path)] == ["root/ping", "root"]
        assert os.listdir(tmp_path) == ["trace.jsonl"]

    def test_write_bench_json(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bench_dir = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")
        monkeypatch.syspath_prepend(bench_dir)
        from _common import write_bench_json

        out = write_bench_json(
            "t0", params={"n": 1}, columns=["a"], rows=[[1]], path=tmp_path / "b.json"
        )
        data = json.loads(out.read_text())
        assert data["bench"] == "t0"
        assert data["rows"] == [[1]]
