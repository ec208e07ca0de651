"""Time intervals and coalesced interval sets.

A *valid period* — the first kind of temporal feature in the paper — is a
half-open time interval ``[start, end)``.  :class:`IntervalSet` maintains a
canonical (sorted, pairwise-disjoint, non-adjacent) sequence of intervals
with the usual algebra: union, intersection, difference, complement over a
bounding window, and containment.

Canonical form is an invariant: any two equal point-sets compare equal as
:class:`IntervalSet` values, which the property-based tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import TemporalError
from repro.temporal.granularity import Granularity, unit_bounds, unit_end, unit_index, unit_start


@dataclass(frozen=True, order=True)
class TimeInterval:
    """A half-open interval ``[start, end)`` on the time line."""

    start: datetime
    end: datetime

    def __post_init__(self) -> None:
        if not isinstance(self.start, datetime) or not isinstance(self.end, datetime):
            raise TemporalError("interval bounds must be datetimes")
        if self.end <= self.start:
            raise TemporalError(
                f"interval end must be after start, got [{self.start}, {self.end})"
            )

    @classmethod
    def from_units(
        cls, first_unit: int, last_unit: int, granularity: Granularity
    ) -> "TimeInterval":
        """Interval covering units ``first_unit..last_unit`` inclusive."""
        if last_unit < first_unit:
            raise TemporalError(
                f"last_unit {last_unit} precedes first_unit {first_unit}"
            )
        return cls(unit_start(first_unit, granularity), unit_end(last_unit, granularity))

    @property
    def duration(self) -> timedelta:
        return self.end - self.start

    def contains(self, instant: datetime) -> bool:
        """Point containment (half-open semantics)."""
        return self.start <= instant < self.end

    def contains_interval(self, other: "TimeInterval") -> bool:
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "TimeInterval") -> bool:
        return self.start < other.end and other.start < self.end

    def meets_or_overlaps(self, other: "TimeInterval") -> bool:
        """True when the union of the two intervals is itself an interval."""
        return self.start <= other.end and other.start <= self.end

    def intersect(self, other: "TimeInterval") -> Optional["TimeInterval"]:
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if end <= start:
            return None
        return TimeInterval(start, end)

    def merge(self, other: "TimeInterval") -> "TimeInterval":
        """Union of two meeting/overlapping intervals."""
        if not self.meets_or_overlaps(other):
            raise TemporalError(f"cannot merge disjoint intervals {self} and {other}")
        return TimeInterval(min(self.start, other.start), max(self.end, other.end))

    def unit_count(self, granularity: Granularity) -> int:
        """Number of whole-or-partial units of ``granularity`` overlapped."""
        from repro.temporal.granularity import units_between

        return len(units_between(self.start, self.end, granularity))

    def jaccard(self, other: "TimeInterval") -> float:
        """Temporal Jaccard similarity |∩| / |∪| measured in seconds.

        Used by the experiment harness to score how well a recovered valid
        period matches an embedded ground-truth period.
        """
        intersection = self.intersect(other)
        if intersection is None:
            return 0.0
        inter = intersection.duration.total_seconds()
        union = (
            self.duration.total_seconds()
            + other.duration.total_seconds()
            - inter
        )
        return inter / union if union > 0 else 0.0

    def __str__(self) -> str:
        return f"[{self.start.isoformat()}, {self.end.isoformat()})"


class IntervalSet:
    """A canonical union of disjoint half-open intervals.

    >>> a = IntervalSet([TimeInterval(datetime(2026, 1, 1), datetime(2026, 2, 1)),
    ...                  TimeInterval(datetime(2026, 2, 1), datetime(2026, 3, 1))])
    >>> len(a.intervals)   # adjacent intervals coalesce
    1
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[TimeInterval] = ()):
        self._intervals: Tuple[TimeInterval, ...] = self._coalesce(intervals)

    @staticmethod
    def _coalesce(intervals: Iterable[TimeInterval]) -> Tuple[TimeInterval, ...]:
        ordered = sorted(intervals, key=lambda i: (i.start, i.end))
        merged: List[TimeInterval] = []
        for interval in ordered:
            if merged and merged[-1].meets_or_overlaps(interval):
                merged[-1] = merged[-1].merge(interval)
            else:
                merged.append(interval)
        return tuple(merged)

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def single(cls, start: datetime, end: datetime) -> "IntervalSet":
        return cls((TimeInterval(start, end),))

    @classmethod
    def from_unit_indices(
        cls, indices: Iterable[int], granularity: Granularity
    ) -> "IntervalSet":
        """Interval set covering exactly the given unit indices.

        Consecutive indices coalesce into one interval.
        """
        return cls(
            TimeInterval(*unit_bounds(index, granularity))
            for index in sorted(set(indices))
        )

    @property
    def intervals(self) -> Tuple[TimeInterval, ...]:
        return self._intervals

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterator[TimeInterval]:
        return iter(self._intervals)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:
        inner = ", ".join(str(i) for i in self._intervals)
        return f"IntervalSet({inner})"

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self._intervals + other._intervals)

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        result: List[TimeInterval] = []
        i, j = 0, 0
        a, b = self._intervals, other._intervals
        while i < len(a) and j < len(b):
            overlap = a[i].intersect(b[j])
            if overlap is not None:
                result.append(overlap)
            if a[i].end <= b[j].end:
                i += 1
            else:
                j += 1
        return IntervalSet(result)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        result: List[TimeInterval] = []
        for interval in self._intervals:
            pieces = [interval]
            for hole in other._intervals:
                if hole.start >= interval.end:
                    break
                next_pieces: List[TimeInterval] = []
                for piece in pieces:
                    if not piece.overlaps(hole):
                        next_pieces.append(piece)
                        continue
                    if piece.start < hole.start:
                        next_pieces.append(TimeInterval(piece.start, hole.start))
                    if hole.end < piece.end:
                        next_pieces.append(TimeInterval(hole.end, piece.end))
                pieces = next_pieces
            result.extend(pieces)
        return IntervalSet(result)

    def complement(self, window: TimeInterval) -> "IntervalSet":
        """The parts of ``window`` not covered by this set."""
        return IntervalSet((window,)).difference(self)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def contains(self, instant: datetime) -> bool:
        import bisect

        starts = [i.start for i in self._intervals]
        position = bisect.bisect_right(starts, instant) - 1
        return position >= 0 and self._intervals[position].contains(instant)

    def covers(self, interval: TimeInterval) -> bool:
        """True when ``interval`` lies entirely inside one member."""
        return any(member.contains_interval(interval) for member in self._intervals)

    def total_duration(self) -> timedelta:
        return sum((i.duration for i in self._intervals), timedelta())

    def span(self) -> Optional[TimeInterval]:
        """Smallest single interval covering the whole set (None if empty)."""
        if not self._intervals:
            return None
        return TimeInterval(self._intervals[0].start, self._intervals[-1].end)

    def unit_indices(self, granularity: Granularity) -> List[int]:
        """All unit indices whose units overlap this set."""
        from repro.temporal.granularity import units_between

        indices: List[int] = []
        for interval in self._intervals:
            indices.extend(units_between(interval.start, interval.end, granularity))
        return sorted(set(indices))
