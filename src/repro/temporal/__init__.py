"""Temporal algebra: granularities, intervals, calendars, periodicities.

These are the *temporal features* (TF) in the paper's ⟨AR, TF⟩ pairs:
valid periods (:class:`TimeInterval` / :class:`IntervalSet`),
periodicities (:class:`CyclicPeriodicity`, :class:`CalendricPeriodicity`)
and specific calendars (:class:`CalendarPattern`,
:class:`CalendarExpression`).
"""

from repro.temporal.calendar_algebra import (
    DECEMBER,
    FIRST_WEEK_OF_MONTH,
    NAMED_CALENDARS,
    SUMMER,
    WEEKDAYS,
    WEEKENDS,
    CalendarExpression,
    CalendarPattern,
)
from repro.temporal.granularity import (
    Granularity,
    unit_bounds,
    unit_end,
    unit_index,
    unit_indices,
    unit_label,
    unit_start,
    units_between,
)
from repro.temporal.interval import IntervalSet, TimeInterval
from repro.temporal.periodicity import (
    CalendricPeriodicity,
    CyclicPeriodicity,
    Periodicity,
    cyclic_from_units,
    describe_units,
)

__all__ = [
    "DECEMBER",
    "FIRST_WEEK_OF_MONTH",
    "NAMED_CALENDARS",
    "SUMMER",
    "WEEKDAYS",
    "WEEKENDS",
    "CalendarExpression",
    "CalendarPattern",
    "CalendricPeriodicity",
    "CyclicPeriodicity",
    "Granularity",
    "IntervalSet",
    "Periodicity",
    "TimeInterval",
    "cyclic_from_units",
    "describe_units",
    "unit_bounds",
    "unit_end",
    "unit_index",
    "unit_indices",
    "unit_label",
    "unit_start",
    "units_between",
]
