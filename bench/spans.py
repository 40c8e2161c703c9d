"""In-memory span recorder, self-time accounting and the trace view.

A span records ``name``, ``span_id``, ``parent_id``, ``request_id``,
``start``, ``end`` (``time.perf_counter`` seconds), ``samples`` (draws made
while it was open) and free-form ``attrs``.  Spans are kept in memory and
written once, as JSON lines, when the run ends.

A span's *self time* is its duration minus the part of its interval that its
children cover (the union of the child intervals, so overlapping children —
two fleet workers — are not counted twice).  For a parent, the self time is
the explicit residual: the time no child layer accounts for.

Kernel time is metered by the library as per-op totals, not as individual
calls, so a layer span opened with ``kernels=...`` gets one synthetic child
per kernel op it called (``kernel:<op>``, attrs ``calls`` and
``synthetic``), laid back to back from the parent's start.  The calls are
disjoint sub-intervals of the parent, so their sum never exceeds it.

This module imports nothing from the library: ``run.py --summarize`` works
on a trace file alone.
"""

from __future__ import annotations

import json
import time
import weakref
from contextlib import contextmanager
from typing import Callable, Iterator

#: Slack for float round-off when checking that children lie in a parent.
EPS = 1e-6


class Recorder:
    """Collects spans; a disabled recorder records nothing.

    ``kernel_totals`` returns ``{op: (calls, seconds)}`` cumulative totals;
    it is read at the boundaries of spans opened with ``kernels=True``.
    ``owners`` maps library objects (pipelines) to the request they serve,
    so spans opened inside library calls carry the right ``request_id``.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        kernel_totals: "Callable[[], dict] | None" = None,
    ) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self.owners: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._open: list[dict] = []
        self._kernel_totals = kernel_totals

    @contextmanager
    def span(
        self,
        name: str,
        *,
        request_id: "str | None" = None,
        samples: "Callable[[], int] | None" = None,
        kernels: bool = False,
        **attrs: object,
    ) -> Iterator[dict]:
        """Open a span around the block; yields its (mutable) record."""
        if not self.enabled:
            yield {"attrs": {}}
            return
        parent = self._open[-1] if self._open else None
        if request_id is None and parent is not None:
            request_id = parent["request_id"]
        record = {
            "name": name,
            "span_id": len(self.spans),
            "parent_id": parent["span_id"] if parent is not None else None,
            "request_id": request_id,
            "start": 0.0,
            "end": 0.0,
            "samples": 0,
            "attrs": dict(attrs),
        }
        self.spans.append(record)
        self._open.append(record)
        drawn = samples() if samples is not None else 0
        before = self._kernel_totals() if kernels and self._kernel_totals else None
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            if samples is not None:
                record["samples"] = samples() - drawn
            if before is not None:
                self._kernel_children(record, before, self._kernel_totals())

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: "dict | None",
        request_id: "str | None" = None,
        samples: int = 0,
        **attrs: object,
    ) -> dict:
        """Record a span measured elsewhere (clamped into ``parent``)."""
        if parent is not None:
            start = min(max(start, parent["start"]), parent["end"])
            end = min(max(end, start), parent["end"])
            if request_id is None:
                request_id = parent["request_id"]
        record = {
            "name": name,
            "span_id": len(self.spans),
            "parent_id": parent["span_id"] if parent is not None else None,
            "request_id": request_id,
            "start": start,
            "end": end,
            "samples": int(samples),
            "attrs": dict(attrs),
        }
        if self.enabled:
            self.spans.append(record)
        return record

    def _kernel_children(self, parent: dict, before: dict, after: dict) -> None:
        cursor = parent["start"]
        for op in sorted(after):
            calls = after[op][0] - before.get(op, (0, 0.0))[0]
            seconds = after[op][1] - before.get(op, (0, 0.0))[1]
            if calls <= 0:
                continue
            self.add(
                f"kernel:{op}",
                cursor,
                cursor + seconds,
                parent=parent,
                calls=calls,
                synthetic=True,
            )
            cursor += seconds


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


def write_jsonl(path, spans: list[dict]) -> None:
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span, sort_keys=True) + "\n")


def read_jsonl(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Self time and structure
# ---------------------------------------------------------------------------


def children_of(spans: list[dict]) -> dict:
    """``span_id -> [child spans]`` (roots under ``None``)."""
    kids: dict = {}
    for span in spans:
        kids.setdefault(span["parent_id"], []).append(span)
    return kids


def covered(parent: dict, kids: list[dict]) -> float:
    """Length of the part of ``parent``'s interval its children cover."""
    intervals = sorted(
        (max(k["start"], parent["start"]), min(k["end"], parent["end"])) for k in kids
    )
    total = 0.0
    reach = parent["start"]
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict:
    """``span_id -> self time`` (duration minus child coverage)."""
    kids = children_of(spans)
    return {
        s["span_id"]: (s["end"] - s["start"]) - covered(s, kids.get(s["span_id"], []))
        for s in spans
    }


def structure_problems(spans: list[dict]) -> list[str]:
    """Malformed parent/child links, reversed or escaping intervals."""
    by_id = {s["span_id"]: s for s in spans}
    problems = []
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['span_id']} {s['name']} ends before it starts")
        parent_id = s["parent_id"]
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            problems.append(f"span {s['span_id']} {s['name']} has unknown parent {parent_id}")
        elif parent_id >= s["span_id"]:
            problems.append(f"span {s['span_id']} {s['name']} opened before its parent")
        elif s["start"] < parent["start"] - EPS or s["end"] > parent["end"] + EPS:
            problems.append(f"span {s['span_id']} {s['name']} escapes parent {parent_id}")
    return problems


# ---------------------------------------------------------------------------
# The trace view: entry -> layer -> kernel op, with explicit residuals
# ---------------------------------------------------------------------------


def profile(spans: list[dict]) -> dict:
    """Aggregate spans by path (``entry/layer/…``).

    Returns ``path -> {"count", "total", "self", "samples", "children"}``
    where ``children`` is the set of child paths.
    """
    by_id = {s["span_id"]: s for s in spans}
    paths: dict = {}

    def path_of(span: dict) -> str:
        parts = [span["name"]]
        parent_id = span["parent_id"]
        while parent_id is not None:
            parent = by_id[parent_id]
            parts.append(parent["name"])
            parent_id = parent["parent_id"]
        return "/".join(reversed(parts))

    own = self_times(spans)
    span_path = {}
    for span in spans:
        path = span_path[span["span_id"]] = path_of(span)
        row = paths.setdefault(
            path, {"count": 0, "total": 0.0, "self": 0.0, "samples": 0, "children": set()}
        )
        row["count"] += 1
        row["total"] += span["end"] - span["start"]
        row["self"] += own[span["span_id"]]
        row["samples"] += span["samples"]
        if span["parent_id"] is not None:
            paths[span_path[span["parent_id"]]]["children"].add(path)
    return paths


def render(spans: list[dict]) -> str:
    """The layered profile as a text table.

    One row per path, indented by depth, with call count, total and self
    seconds, samples drawn, and share of the root's time.  Every path with
    children is followed by an explicit ``(residual)`` row: its time minus
    what its children cover.
    """
    paths = profile(spans)
    roots = sorted(p for p in paths if "/" not in p)
    lines = [
        f"{'layer':<58} {'count':>7} {'total_s':>10} {'self_s':>10} "
        f"{'samples':>16} {'share':>7}"
    ]

    def emit(path: str, depth: int, root_total: float) -> None:
        row = paths[path]
        label = "  " * depth + path.rsplit("/", 1)[-1]
        share = row["total"] / root_total if root_total > 0 else 0.0
        lines.append(
            f"{label:<58} {row['count']:>7} {row['total']:>10.4f} {row['self']:>10.4f} "
            f"{row['samples']:>16} {share:>7.1%}"
        )
        kids = sorted(row["children"], key=lambda p: -paths[p]["total"])
        for kid in kids:
            emit(kid, depth + 1, root_total)
        if kids:
            label = "  " * (depth + 1) + "(residual)"
            share = row["self"] / root_total if root_total > 0 else 0.0
            lines.append(
                f"{label:<58} {'':>7} {row['self']:>10.4f} {row['self']:>10.4f} "
                f"{'':>16} {share:>7.1%}"
            )

    for root in roots:
        emit(root, 0, paths[root]["total"])
    return "\n".join(lines)
