"""The kernel op registry: named hot-path operations, metered per call.

Every hot kernel is registered under a stable op name (``"rank_tree.
prefix_stats"``, ``"blocks.cover_walk"``, …) with exactly one
implementation.  :func:`dispatch` returns a thin callable that meters every
call into the metrics registry:

    ``kernels.seconds{op=…}`` — a distribution whose ``count`` is the
    number of dispatched calls and whose ``sum`` is the wall-clock seconds
    spent inside them.

Callers on a hot path dispatch once and reuse the returned callable (the
projection oracle binds its kernels at construction); one-shot callers just
dispatch inline — a dispatch is one dict lookup plus one instrument fetch.
"""

from __future__ import annotations

import time
from typing import Any, Callable

_REGISTRY: "dict[str, Callable[..., Any]]" = {}


def register(op: str) -> Callable[[Callable], Callable]:
    """Decorator: register ``fn`` as the implementation of ``op``."""

    def decorate(fn: Callable) -> Callable:
        _REGISTRY[op] = fn
        return fn

    return decorate


def registered_ops() -> tuple[str, ...]:
    """Sorted op names currently registered (diagnostics / tests)."""
    return tuple(sorted(_REGISTRY))


class DispatchedKernel:
    """One registered op, metered per call."""

    __slots__ = ("op", "_fn", "_metric")

    def __init__(self, op: str, fn: Callable[..., Any]) -> None:
        from repro.observability.metrics import get_metrics

        self.op = op
        self._fn = fn
        self._metric = get_metrics().distribution("kernels.seconds", op=op)

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        tick = time.perf_counter()
        try:
            return self._fn(*args, **kwargs)
        finally:
            self._metric.observe(time.perf_counter() - tick)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DispatchedKernel(op={self.op!r})"


def dispatch(op: str) -> DispatchedKernel:
    """The metered callable for ``op``; ``KeyError`` for unknown ops."""
    fn = _REGISTRY.get(op)
    if fn is None:
        raise KeyError(f"unknown kernel op {op!r}; registered: {registered_ops()}")
    return DispatchedKernel(op, fn)


def kernel_seconds_snapshot() -> "list[tuple[str, str, int, float]]":
    """Rows ``(op, kernel, calls, seconds)`` from the metrics registry.

    Sourced from the process-wide ``kernels.seconds`` distributions — the
    data behind ``repro test --stage-timings``'s per-op breakdown.  The
    ``kernel`` column names the implementation that ran, which is always
    the numpy one (``"python"``).
    """
    from repro.observability.metrics import Distribution, get_metrics

    rows = []
    for inst in get_metrics():
        if isinstance(inst, Distribution) and inst.name == "kernels.seconds":
            rows.append(
                (str(inst.labels.get("op", "?")), "python", int(inst.count), float(inst.total))
            )
    rows.sort(key=lambda row: (-row[3], row[0]))
    return rows
