"""Hierarchical span tracing with a deterministic JSONL event stream.

Design constraints, in order of importance:

1. **Determinism.**  Two runs of the same seeded experiment must produce the
   same event stream, byte for byte, once wall-clock fields are stripped —
   including across worker counts (per-trial sub-traces are exported from
   the workers and re-sequenced in trial order by the parent).  Events are
   therefore appended at span *close*, in close order, with a parent-side
   sequence number; the only nondeterministic field is ``duration_s``,
   which :func:`strip_wall_clock` removes and which never enters checkpoint
   fingerprints.
2. **Zero cost when off.**  The default :data:`NULL_TRACER` allocates
   nothing per span: ``span()`` returns one shared, stateless context
   manager and ``event()`` is a constant-time no-op, so instrumented code
   paths stay within noise of un-instrumented ones (gated in CI by
   ``benchmarks/gate.py`` on ``BENCH_e23.json``).
3. **Schema stability.**  Every event serialises to exactly the keys of
   :data:`EVENT_KEYS`; :func:`validate_event` rejects anything else, and CI
   validates every trace file a benchmark writes.

Event stream shape::

    {"kind": "span",  "name": "test/sieve/round", "seq": 7, "depth": 2,
     "attrs": {"round": 1, "removed": 3, "samples": 4096},
     "duration_s": 0.0123}
    {"kind": "event", "name": "ledger", "seq": 12, "depth": 0,
     "attrs": {"stages": {...}, "samples_used": 51234, ...},
     "duration_s": null}

``name`` is the slash-joined span path (hierarchy survives flattening);
``depth`` is the nesting depth at emission; ``attrs`` carries only
deterministic, JSON-scalar payloads (sample counts, round indices,
rejection reasons) — never timestamps.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

#: Fields that carry wall-clock measurements.  Stripped by
#: :func:`strip_wall_clock` before any byte comparison or fingerprint.
WALL_CLOCK_FIELDS = ("duration_s",)

#: Exactly the keys a serialised event carries (a compatibility surface).
EVENT_KEYS = frozenset({"kind", "name", "seq", "depth", "attrs", "duration_s"})

_KINDS = frozenset({"span", "event"})


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One flattened trace record (a closed span or a point event)."""

    kind: str  # "span" | "event"
    name: str  # slash-joined path, e.g. "test/sieve/round"
    seq: int  # parent-side emission order (deterministic)
    depth: int  # nesting depth at emission
    attrs: dict = field(default_factory=dict)
    duration_s: "float | None" = None  # wall clock; None for point events

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "seq": self.seq,
            "depth": self.depth,
            "attrs": self.attrs,
            "duration_s": self.duration_s,
        }


class _NullSpan:
    """The shared no-op span: stateless, reentrant, allocation-free."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """The tracer interface *and* its no-op implementation.

    Code under instrumentation holds a ``Tracer`` and calls ``span`` /
    ``event`` unconditionally; the base class discards everything at
    constant cost.  Check :attr:`enabled` before computing *expensive*
    attributes only — plain ints/strings are cheaper to pass than to gate.
    """

    enabled: bool = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def absorb(self, events: "Iterable[dict] | None", **extra_attrs: Any) -> None:
        pass


#: The process-wide default tracer: drop everything.
NULL_TRACER = Tracer()


class _RecordingSpan:
    """A live span of a :class:`RecordingTracer`."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start")

    def __init__(self, tracer: "RecordingTracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._start = 0.0

    def __enter__(self) -> "_RecordingSpan":
        self._tracer._push(self._name)
        self._start = self._tracer._clock()
        return self

    def __exit__(self, *exc: object) -> bool:
        elapsed = self._tracer._clock() - self._start
        self._tracer._pop(self._name, self._attrs, elapsed)
        return False

    def set(self, **attrs: Any) -> None:
        """Attach deterministic result attributes to the span."""
        self._attrs.update(attrs)


class RecordingTracer(Tracer):
    """An in-memory tracer producing the deterministic event stream.

    Spans nest via a path stack; each closed span and each point event is
    appended to :attr:`events` with a monotonically increasing ``seq``.
    ``clock`` is injectable for tests (defaults to ``time.perf_counter``,
    a monotonic clock — wall-clock durations never run backwards).
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.events: list[TraceEvent] = []
        self._clock = clock
        self._seq = 0
        self._stack: list[str] = []

    # -- span machinery ----------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _RecordingSpan:
        return _RecordingSpan(self, _check_name(name), attrs)

    def _push(self, name: str) -> None:
        self._stack.append(name)

    def _pop(self, name: str, attrs: dict, elapsed: float) -> None:
        path = "/".join(self._stack)
        depth = len(self._stack) - 1
        self._stack.pop()
        self._append("span", path, depth, attrs, elapsed)

    def event(self, name: str, **attrs: Any) -> None:
        path = "/".join(self._stack + [_check_name(name)])
        self._append("event", path, len(self._stack), attrs, None)

    def _append(
        self, kind: str, name: str, depth: int, attrs: dict, duration: "float | None"
    ) -> None:
        self.events.append(
            TraceEvent(
                kind=kind,
                name=name,
                seq=self._seq,
                depth=depth,
                attrs=attrs,
                duration_s=duration,
            )
        )
        self._seq += 1

    # -- cross-process assembly --------------------------------------------

    def export(self) -> list[dict]:
        """The event stream as picklable/JSON-able dicts (worker → parent)."""
        return [e.to_json() for e in self.events]

    def absorb(self, events: "Iterable[dict] | None", **extra_attrs: Any) -> None:
        """Splice a sub-trace (a worker trial's exported events) into this
        stream, re-sequencing and re-rooting under the current span path.

        Callers absorb sub-traces **in trial order**, which is what makes
        serial and parallel runs byte-identical: each trial's events are
        internally deterministic, and the splice order is fixed by the
        caller, not by completion order.  ``extra_attrs`` (e.g. the trial
        index) are merged into every absorbed event's attrs.
        """
        if not events:
            return
        prefix = "/".join(self._stack)
        base_depth = len(self._stack)
        for raw in events:
            validate_event(raw)
            name = f"{prefix}/{raw['name']}" if prefix else raw["name"]
            attrs = dict(raw["attrs"])
            attrs.update(extra_attrs)
            self._append(
                raw["kind"], name, base_depth + raw["depth"], attrs, raw["duration_s"]
            )


def _check_name(name: str) -> str:
    if not name or "/" in name:
        raise ValueError(f"span/event names must be non-empty and slash-free: {name!r}")
    return name


# ---------------------------------------------------------------------------
# JSONL serialisation, canonicalisation, schema validation
# ---------------------------------------------------------------------------


def _as_dicts(events: "Sequence[TraceEvent | dict]") -> list[dict]:
    return [e.to_json() if isinstance(e, TraceEvent) else e for e in events]


def write_jsonl(path: "str | os.PathLike", events: "Sequence[TraceEvent | dict]") -> None:
    """Write one event per line (sorted keys — stable diffs), atomically
    *and durably* (tmp file + fsync + rename + directory fsync, the same
    path sweep checkpoints use — a crash mid-write never leaves a torn
    trace file on disk)."""
    from repro.util.atomicio import atomic_write_text

    payload = (
        "\n".join(json.dumps(e, sort_keys=True) for e in _as_dicts(events)) + "\n"
        if events
        else ""
    )
    atomic_write_text(path, payload)


def read_jsonl(path: "str | os.PathLike") -> list[dict]:
    """Load a trace file, validating every line against the event schema."""
    events: list[dict] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON — {exc}") from exc
            try:
                validate_event(raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            events.append(raw)
    return events


def strip_wall_clock(event: dict) -> dict:
    """A copy of ``event`` without wall-clock fields (for byte comparison)."""
    return {k: v for k, v in event.items() if k not in WALL_CLOCK_FIELDS}


def canonical_jsonl(events: "Sequence[TraceEvent | dict]") -> str:
    """The deterministic byte representation: wall clock stripped, keys
    sorted.  Two runs of the same seeded experiment must agree on this
    string exactly, at any worker count."""
    return "".join(
        json.dumps(strip_wall_clock(e), sort_keys=True) + "\n" for e in _as_dicts(events)
    )


def validate_event(event: object) -> None:
    """Raise ``ValueError`` unless ``event`` matches the trace schema."""
    if not isinstance(event, dict):
        raise ValueError(f"event must be an object, got {type(event).__name__}")
    extra = set(event) - EVENT_KEYS
    missing = EVENT_KEYS - set(event)
    if extra or missing:
        raise ValueError(
            f"bad event keys: unknown {sorted(extra)}, missing {sorted(missing)}"
        )
    if event["kind"] not in _KINDS:
        raise ValueError(f"kind must be one of {sorted(_KINDS)}, got {event['kind']!r}")
    if not isinstance(event["name"], str) or not event["name"]:
        raise ValueError(f"name must be a non-empty string, got {event['name']!r}")
    if not isinstance(event["seq"], int) or isinstance(event["seq"], bool) or event["seq"] < 0:
        raise ValueError(f"seq must be a non-negative int, got {event['seq']!r}")
    if (
        not isinstance(event["depth"], int)
        or isinstance(event["depth"], bool)
        or event["depth"] < 0
    ):
        raise ValueError(f"depth must be a non-negative int, got {event['depth']!r}")
    if not isinstance(event["attrs"], dict):
        raise ValueError(f"attrs must be an object, got {type(event['attrs']).__name__}")
    duration = event["duration_s"]
    if duration is not None and not isinstance(duration, (int, float)):
        raise ValueError(f"duration_s must be a number or null, got {duration!r}")
    if isinstance(duration, float) and duration < 0:
        raise ValueError(f"duration_s must be non-negative, got {duration}")


def validate_trace(path: "str | os.PathLike") -> int:
    """Validate a whole trace file; returns the number of events.

    Also checks the stream-level invariant that ``seq`` values are strictly
    increasing (assembly in trial order guarantees it).
    """
    events = read_jsonl(path)
    last = -1
    for event in events:
        if event["seq"] <= last:
            raise ValueError(
                f"{path}: seq not strictly increasing at seq={event['seq']}"
            )
        last = event["seq"]
    return len(events)
