"""Lightweight span tracing for mining runs.

A :class:`Tracer` records one run as a tree of timed spans::

    with tracer.span("mine", task="valid_periods"):
        with tracer.span("pass", k=2, candidates=131):
            ...

Spans use the monotonic clock (``time.perf_counter``), carry arbitrary
JSON-able attributes, and serialize to a nested dict via
:meth:`Tracer.to_dict` — the ``trace`` section attached to
:class:`~repro.mining.results.MiningReport` and service job records.

Cancellation safety: spans are context managers, so a
``RunInterrupted`` (or any exception) unwinding through a span still
closes it — the finished tree is always well-formed, with the aborted
spans marked ``status: "interrupted"`` (or ``"error"``).  The check is
by exception *name*, deliberately: this module sits below
:mod:`repro.runtime` in the import graph and must not import it.

The :data:`NULL_TRACER` singleton makes "tracing off" free at the call
sites: ``tracer_of(monitor).span(...)`` costs one attribute read and a
no-op context manager when no tracer is attached.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "tracer_of", "format_trace"]


class Span:
    """One timed node of the trace tree."""

    __slots__ = ("name", "attrs", "started", "ended", "children", "status")

    def __init__(self, name: str, attrs: Dict[str, object]):
        self.name = name
        self.attrs = attrs
        self.started: float = 0.0
        self.ended: Optional[float] = None
        self.children: List["Span"] = []
        self.status: str = "ok"

    def duration(self) -> float:
        if self.ended is None:
            return 0.0
        return self.ended - self.started


class _SpanContext:
    """The context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._open(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            # RunInterrupted is internal control flow (a budget stop or
            # a cancel), not a failure; recognized by name to keep this
            # module import-free of repro.runtime.
            self._span.status = (
                "interrupted" if exc_type.__name__ == "RunInterrupted" else "error"
            )
        self._tracer._close(self._span)
        return False


class Tracer:
    """Collects one run's span tree (monotonic timings).

    Like the :class:`~repro.runtime.budget.RunMonitor` it rides on, a
    tracer belongs to the thread that runs the mine; nothing in it is
    locked.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._origin = clock()
        self._roots: List[Span] = []
        self._stack: List[Span] = []

    @property
    def enabled(self) -> bool:
        return True

    def span(self, name: str, **attrs: object) -> _SpanContext:
        """Open a child span of the currently open span (or a root)."""
        return _SpanContext(self, Span(name, attrs))

    def _open(self, span: Span) -> None:
        span.started = self._clock()
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self._roots.append(span)
        self._stack.append(span)

    def _close(self, span: Span) -> None:
        span.ended = self._clock()
        # Close any deeper spans left open by a non-local exit, so the
        # tree stays well-formed even if an inner ``with`` was bypassed
        # (defensive; context managers normally unwind in order).
        while self._stack and self._stack[-1] is not span:
            dangling = self._stack.pop()
            if dangling.ended is None:
                dangling.ended = span.ended
                dangling.status = "interrupted"
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    def to_dict(self) -> Dict[str, object]:
        """The finished trace as a JSON-able document."""
        ended = self._clock()
        # Snapshot open spans too (a mid-run export must not crash).  An
        # open span can sit at ANY depth (a budget stop unwinding through
        # nested passes, or a mid-run export), and every open span —
        # child or root — gets the same fallback end time, never a
        # zero/negative duration.
        def render(span: Span) -> Dict[str, object]:
            span_end = span.ended if span.ended is not None else ended
            node: Dict[str, object] = {
                "name": span.name,
                "start_ms": round((span.started - self._origin) * 1000.0, 3),
                "duration_ms": round((span_end - span.started) * 1000.0, 3),
            }
            if span.attrs:
                node["attrs"] = dict(span.attrs)
            status = span.status
            if span.ended is None and status == "ok":
                status = "open"
            if status != "ok":
                node["status"] = status
            if span.children:
                node["children"] = [render(child) for child in span.children]
            return node

        return {
            "spans": [render(root) for root in self._roots],
            "total_ms": round(
                sum(
                    ((root.ended if root.ended is not None else ended)
                     - root.started)
                    for root in self._roots
                )
                * 1000.0,
                3,
            ),
        }


class NullTracer:
    """The free "tracing off" tracer — span() is a reusable no-op."""

    class _NullContext:
        __slots__ = ()

        def __enter__(self):
            return None

        def __exit__(self, *exc_info) -> bool:
            return False

    _CONTEXT = _NullContext()

    @property
    def enabled(self) -> bool:
        return False

    def span(self, name: str, **attrs: object) -> "_NullContext":
        return self._CONTEXT

    def to_dict(self) -> Dict[str, object]:
        return {"spans": [], "total_ms": 0.0}


#: Shared no-op tracer; every untraced call site routes through it.
NULL_TRACER = NullTracer()


def tracer_of(monitor) -> object:
    """The tracer riding on a run monitor, or :data:`NULL_TRACER`.

    The monitor is the per-run object every loop already threads
    through, which is exactly why the tracer travels on it.
    """
    tracer = getattr(monitor, "trace", None)
    return tracer if tracer is not None else NULL_TRACER


def format_trace(trace: Dict[str, object], indent: int = 0) -> str:
    """Render a :meth:`Tracer.to_dict` document as an indented text tree."""
    lines: List[str] = []

    def walk(node: Dict[str, object], depth: int) -> None:
        attrs = node.get("attrs") or {}
        detail = " ".join(f"{key}={value}" for key, value in attrs.items())
        status = node.get("status")
        suffix = f" [{status}]" if status else ""
        label = node["name"] + (f" ({detail})" if detail else "")
        lines.append(
            f"{'  ' * depth}{label}{suffix}  {node['duration_ms']:.3f}ms"
        )
        for child in node.get("children") or []:
            walk(child, depth + 1)

    for root in trace.get("spans") or []:
        walk(root, indent)
    if not lines:
        return "(empty trace)"
    return "\n".join(lines)
