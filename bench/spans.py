"""Benchmark-owned spans around calls into each layer's public functions.

Nothing inside ``src/`` is instrumented: the traced run wraps its own
calls.  Spans stay in memory until :meth:`SpanRecorder.write` dumps them
as JSON lines.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans; nesting follows the ``with`` structure."""

    def __init__(self, clock=time.perf_counter):
        self.spans: List[Span] = []
        self._clock = clock
        self._stack: List[int] = []

    def now(self) -> float:
        return self._clock()

    @contextmanager
    def span(self, name: str, op_id: str = "") -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if not op_id and parent is not None:
            op_id = self.spans[parent].op_id
        record = Span(len(self.spans), name, self._clock(), 0.0, parent, op_id)
        self.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            record.end = self._clock()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self_times(self.spans)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                row = asdict(span)
                row["self"] = own[span.span_id]
                handle.write(json.dumps(row) + "\n")


def covered(intervals: Iterable["tuple[float, float]"], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Children may overlap each other (concurrent work) or be nested
    deeper; only direct children count, and overlapping children are
    not subtracted twice.
    """
    children: Dict[int, List["tuple[float, float]"]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def self_time_by_name(spans: List[Span]) -> Dict[str, float]:
    """Self time summed per span name — the per-layer table."""
    own = self_times(spans)
    table: Dict[str, float] = {}
    for span in spans:
        table[span.name] = table.get(span.name, 0.0) + own[span.span_id]
    return table
