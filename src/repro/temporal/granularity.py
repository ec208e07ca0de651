"""Time granularities and the discrete time axis.

Temporal association mining works on a discrete axis of *time units* at a
chosen granularity (hour / day / week / month / quarter / year).  A unit
is identified by an integer index relative to the Unix epoch, so unit
arithmetic (cycles, offsets, distances) is plain integer arithmetic:

* HOUR    — hours since 1970-01-01 00:00
* DAY     — days  since 1970-01-01
* WEEK    — ISO-style Monday-anchored weeks; week 0 starts 1969-12-29
* MONTH   — ``(year − 1970) * 12 + (month − 1)``
* QUARTER — ``(year − 1970) * 4 + (month − 1) // 3``
* YEAR    — ``year − 1970``

Negative indices (instants before the epoch) are fully supported.
"""

from __future__ import annotations

import enum
import operator
from datetime import datetime, timedelta
from typing import Sequence, Tuple

import numpy as np

from repro.errors import GranularityError

_EPOCH = datetime(1970, 1, 1)
_WEEK0_START = datetime(1969, 12, 29)  # the Monday on or before the epoch

_EPOCH_ORDINAL = _EPOCH.toordinal()
_US_PER_HOUR = 3_600_000_000
_US_PER_DAY = 24 * _US_PER_HOUR


class Granularity(enum.Enum):
    """A calendar granularity of the discrete time axis."""

    HOUR = "hour"
    DAY = "day"
    WEEK = "week"
    MONTH = "month"
    QUARTER = "quarter"
    YEAR = "year"

    @classmethod
    def parse(cls, text: str) -> "Granularity":
        """Parse a (case-insensitive, optionally plural) granularity name."""
        if isinstance(text, Granularity):
            return text
        name = str(text).strip().lower().rstrip("s")
        for member in cls:
            if member.value == name:
                return member
        raise GranularityError(f"unknown granularity {text!r}")

    def __str__(self) -> str:
        return self.value


_MONTHS_PER_UNIT = {
    Granularity.MONTH: 1,
    Granularity.QUARTER: 3,
    Granularity.YEAR: 12,
}


def unit_index(instant: datetime, granularity: Granularity) -> int:
    """The index of the time unit containing ``instant``."""
    if granularity is Granularity.HOUR:
        delta = instant - _EPOCH
        return _floor_div_seconds(delta, 3600)
    if granularity is Granularity.DAY:
        delta = instant - _EPOCH
        return _floor_div_seconds(delta, 86400)
    if granularity is Granularity.WEEK:
        delta = instant - _WEEK0_START
        return _floor_div_seconds(delta, 7 * 86400)
    if granularity is Granularity.MONTH:
        return (instant.year - 1970) * 12 + (instant.month - 1)
    if granularity is Granularity.QUARTER:
        return (instant.year - 1970) * 4 + (instant.month - 1) // 3
    if granularity is Granularity.YEAR:
        return instant.year - 1970
    raise GranularityError(f"unhandled granularity {granularity!r}")


def stamp_column(instants: Sequence[datetime]) -> np.ndarray:
    """Naive datetimes as a ``datetime64[us]`` column (exact).

    Assembled from the calendar fields with one C-level pass per field,
    several times faster than letting numpy convert the objects one by
    one.
    """
    n = len(instants)

    def field(getter) -> np.ndarray:
        return np.fromiter(map(getter, instants), dtype=np.int64, count=n)

    days = field(datetime.toordinal) - _EPOCH_ORDINAL
    seconds = (
        field(operator.attrgetter("hour")) * 3600
        + field(operator.attrgetter("minute")) * 60
        + field(operator.attrgetter("second"))
    )
    micros = (days * 86400 + seconds) * 1_000_000 + field(
        operator.attrgetter("microsecond")
    )
    return micros.view("datetime64[us]")


def unit_indices(stamps: np.ndarray, granularity: Granularity) -> np.ndarray:
    """:func:`unit_index` of every instant of a ``datetime64[us]`` column.

    Integer floor division throughout, so instants before the epoch land
    in the (negative) unit that contains them, exactly like the scalar
    function.
    """
    if granularity in _MONTHS_PER_UNIT:
        months = stamps.astype("datetime64[M]").astype(np.int64)
        return months // _MONTHS_PER_UNIT[granularity]
    micros = stamps.astype(np.int64)
    if granularity is Granularity.HOUR:
        return micros // _US_PER_HOUR
    if granularity is Granularity.DAY:
        return micros // _US_PER_DAY
    if granularity is Granularity.WEEK:
        # Week 0 starts on the Monday three days before the epoch.
        return (micros + 3 * _US_PER_DAY) // (7 * _US_PER_DAY)
    raise GranularityError(f"unhandled granularity {granularity!r}")


def unit_starts(indices: np.ndarray, granularity: Granularity) -> np.ndarray:
    """:func:`unit_start` of every unit index, as a ``datetime64[us]`` column.

    The inverse of :func:`unit_indices`; ``.tolist()`` turns the column
    into the same :class:`datetime` values the scalar function returns.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if granularity in _MONTHS_PER_UNIT:
        months = indices * _MONTHS_PER_UNIT[granularity]
        return months.view("datetime64[M]").astype("datetime64[us]")
    if granularity is Granularity.HOUR:
        micros = indices * _US_PER_HOUR
    elif granularity is Granularity.DAY:
        micros = indices * _US_PER_DAY
    elif granularity is Granularity.WEEK:
        micros = indices * (7 * _US_PER_DAY) - 3 * _US_PER_DAY
    else:
        raise GranularityError(f"unhandled granularity {granularity!r}")
    return micros.view("datetime64[us]")


def unit_start(index: int, granularity: Granularity) -> datetime:
    """The first instant of unit ``index`` (inclusive)."""
    if granularity is Granularity.HOUR:
        return _EPOCH + timedelta(hours=index)
    if granularity is Granularity.DAY:
        return _EPOCH + timedelta(days=index)
    if granularity is Granularity.WEEK:
        return _WEEK0_START + timedelta(weeks=index)
    if granularity is Granularity.MONTH:
        year, month = divmod(index, 12)
        return datetime(1970 + year, month + 1, 1)
    if granularity is Granularity.QUARTER:
        year, quarter = divmod(index, 4)
        return datetime(1970 + year, quarter * 3 + 1, 1)
    if granularity is Granularity.YEAR:
        return datetime(1970 + index, 1, 1)
    raise GranularityError(f"unhandled granularity {granularity!r}")


def unit_end(index: int, granularity: Granularity) -> datetime:
    """The first instant *after* unit ``index`` (exclusive end)."""
    return unit_start(index + 1, granularity)


def unit_bounds(index: int, granularity: Granularity) -> Tuple[datetime, datetime]:
    """Half-open ``[start, end)`` bounds of unit ``index``."""
    return unit_start(index, granularity), unit_end(index, granularity)


def unit_label(index: int, granularity: Granularity) -> str:
    """Human-readable unit name, e.g. ``"2026-07"`` or ``"2026-W27"``."""
    start = unit_start(index, granularity)
    if granularity is Granularity.HOUR:
        return start.strftime("%Y-%m-%d %H:00")
    if granularity is Granularity.DAY:
        return start.strftime("%Y-%m-%d")
    if granularity is Granularity.WEEK:
        iso = start.isocalendar()
        return f"{iso[0]}-W{iso[1]:02d}"
    if granularity is Granularity.MONTH:
        return start.strftime("%Y-%m")
    if granularity is Granularity.QUARTER:
        return f"{start.year}-Q{(start.month - 1) // 3 + 1}"
    if granularity is Granularity.YEAR:
        return str(start.year)
    raise GranularityError(f"unhandled granularity {granularity!r}")


def units_between(start: datetime, end: datetime, granularity: Granularity) -> range:
    """Indices of all units overlapping the half-open span ``[start, end)``.

    >>> list(units_between(datetime(2026, 1, 15), datetime(2026, 3, 2),
    ...                    Granularity.MONTH))  # Jan, Feb, Mar 2026
    [672, 673, 674]
    """
    if end <= start:
        return range(0)
    first = unit_index(start, granularity)
    # end is exclusive: the unit containing (end - epsilon) is the last one.
    last = unit_index(end - timedelta(microseconds=1), granularity)
    return range(first, last + 1)


def _floor_div_seconds(delta: timedelta, seconds: int) -> int:
    total = delta.days * 86400 + delta.seconds  # microseconds never push past a unit
    return total // seconds if total >= 0 else -((-total + seconds - 1) // seconds)
