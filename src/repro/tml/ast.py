"""Abstract syntax of TML statements.

All nodes are frozen dataclasses with a :meth:`render` producing
canonical TML text; the parser/renderer round-trip
(``parse(node.render()) == node``) is a tested invariant.

Date/time literals stay as strings at the AST level and are resolved to
:class:`datetime.datetime` by the executor, so parsing has no calendar
dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from repro.temporal.granularity import Granularity


@dataclass(frozen=True)
class PeriodFeature:
    """``DURING PERIOD '<start>' TO '<end>'`` — a concrete interval."""

    start_text: str
    end_text: str

    def render(self) -> str:
        return f"PERIOD '{self.start_text}' TO '{self.end_text}'"


@dataclass(frozen=True)
class CalendarFeature:
    """``DURING CALENDAR '<pattern>'`` — a calendar pattern constraint."""

    pattern_text: str

    def render(self) -> str:
        escaped = self.pattern_text.replace("'", "''")
        return f"CALENDAR '{escaped}'"


@dataclass(frozen=True)
class CyclicFeature:
    """``DURING EVERY <p> <granularity> [OFFSET <o>]`` — a cycle."""

    period: int
    granularity: Granularity
    offset: int = 0

    def render(self) -> str:
        rendered = f"EVERY {self.period} {self.granularity}"
        if self.offset:
            rendered += f" OFFSET {self.offset}"
        return rendered


@dataclass(frozen=True)
class NamedCalendarFeature:
    """``DURING <name>`` — a named calendar such as ``weekends``.

    Names resolve against
    :data:`repro.temporal.calendar_algebra.NAMED_CALENDARS` at execution
    time; the parser accepts any identifier.
    """

    name: str

    def render(self) -> str:
        return self.name


@dataclass(frozen=True)
class CalendarComboFeature:
    """``<calendar> AND|OR|MINUS <calendar>`` — a calendar expression.

    Operands are calendar-like features (pattern literals, named
    calendars, or nested combos); the executor compiles the tree into a
    :class:`~repro.temporal.calendar_algebra.CalendarExpression`.
    """

    op: str  # "AND" | "OR" | "MINUS"
    left: "FeatureSpec"
    right: "FeatureSpec"

    def render(self) -> str:
        return f"{self.left.render()} {self.op} {self.right.render()}"


FeatureSpec = Union[
    PeriodFeature,
    CalendarFeature,
    CyclicFeature,
    NamedCalendarFeature,
    CalendarComboFeature,
]


def _render_common(
    min_support: float,
    min_confidence: float,
    max_size: int,
    max_consequent: int,
) -> Tuple[str, list]:
    text = f" WITH SUPPORT >= {min_support:g}, CONFIDENCE >= {min_confidence:g}"
    havings = []
    if max_size:
        havings.append(f"SIZE <= {max_size}")
    # CONSEQUENT is always rendered: its parser default (1) differs from
    # "unbounded" (0), so omitting it would break render/parse round-trips.
    havings.append(f"CONSEQUENT <= {max_consequent}")
    return text, havings


@dataclass(frozen=True)
class MineRulesStatement:
    """Task 3 — ``MINE RULES FROM <src> DURING <feature> ...``."""

    source: str
    feature: FeatureSpec
    min_support: float
    min_confidence: float
    granularity: Optional[Granularity] = None
    containing: Tuple[str, ...] = ()
    max_size: int = 0
    max_consequent: int = 1

    def render(self) -> str:
        text = f"MINE RULES FROM {self.source} DURING {self.feature.render()}"
        if self.granularity is not None:
            text += f" AT GRANULARITY {self.granularity}"
        if self.containing:
            rendered = ", ".join(
                "'" + label.replace("'", "''") + "'" for label in self.containing
            )
            text += f" CONTAINING {rendered}"
        common, havings = _render_common(
            self.min_support, self.min_confidence, self.max_size, self.max_consequent
        )
        text += common
        if havings:
            text += " HAVING " + ", ".join(havings)
        return text + ";"


@dataclass(frozen=True)
class MinePeriodsStatement:
    """Task 1 — ``MINE PERIODS FROM <src> AT GRANULARITY <g> ...``."""

    source: str
    granularity: Granularity
    min_support: float
    min_confidence: float
    min_frequency: float = 1.0
    min_coverage: int = 2
    max_size: int = 0
    max_consequent: int = 1

    def render(self) -> str:
        text = (
            f"MINE PERIODS FROM {self.source} AT GRANULARITY {self.granularity}"
        )
        common, havings = _render_common(
            self.min_support, self.min_confidence, self.max_size, self.max_consequent
        )
        text += common
        head = [
            f"FREQUENCY >= {self.min_frequency:g}",
            f"COVERAGE >= {self.min_coverage}",
        ]
        text += " HAVING " + ", ".join(head + havings)
        return text + ";"


@dataclass(frozen=True)
class MinePeriodicitiesStatement:
    """Task 2 — ``MINE PERIODICITIES FROM <src> AT GRANULARITY <g> ...``."""

    source: str
    granularity: Granularity
    min_support: float
    min_confidence: float
    max_period: int = 12
    min_match: float = 1.0
    min_repetitions: int = 2
    calendars: Tuple[str, ...] = ()
    interleaved: bool = False
    max_size: int = 0
    max_consequent: int = 1

    def render(self) -> str:
        text = (
            f"MINE PERIODICITIES FROM {self.source} "
            f"AT GRANULARITY {self.granularity}"
        )
        common, havings = _render_common(
            self.min_support, self.min_confidence, self.max_size, self.max_consequent
        )
        text += common
        head = [
            f"PERIOD <= {self.max_period}",
            f"MATCH >= {self.min_match:g}",
            f"REPETITIONS >= {self.min_repetitions}",
        ]
        text += " HAVING " + ", ".join(head + havings)
        if self.calendars:
            rendered = ", ".join(
                f"CALENDAR '{c.replace(chr(39), chr(39) * 2)}'" for c in self.calendars
            )
            text += f" INCLUDING {rendered}"
        if self.interleaved:
            text += " USING INTERLEAVED"
        return text + ";"


@dataclass(frozen=True)
class MineItemsetsStatement:
    """Itemset-level Task 1 — ``MINE ITEMSETS FROM <src> ...``.

    Like ``MINE PERIODS`` but undirected: reports the valid periods of
    frequent *itemsets* (no confidence dimension).
    """

    source: str
    granularity: Granularity
    min_support: float
    min_frequency: float = 1.0
    min_coverage: int = 2
    max_size: int = 0

    def render(self) -> str:
        text = (
            f"MINE ITEMSETS FROM {self.source} AT GRANULARITY {self.granularity}"
            f" WITH SUPPORT >= {self.min_support:g}"
        )
        havings = [
            f"FREQUENCY >= {self.min_frequency:g}",
            f"COVERAGE >= {self.min_coverage}",
        ]
        if self.max_size:
            havings.append(f"SIZE <= {self.max_size}")
        return text + " HAVING " + ", ".join(havings) + ";"


@dataclass(frozen=True)
class MineTrendsStatement:
    """Trend detection — ``MINE TRENDS FROM <src> ...``.

    Reports itemsets whose per-unit support follows a clear monotone
    trend (emerging or declining patterns).
    """

    source: str
    granularity: Granularity
    min_support: float
    min_change: float = 0.1
    min_fit: float = 0.5
    max_size: int = 0

    def render(self) -> str:
        text = (
            f"MINE TRENDS FROM {self.source} AT GRANULARITY {self.granularity}"
            f" WITH SUPPORT >= {self.min_support:g}"
        )
        havings = [
            f"CHANGE >= {self.min_change:g}",
            f"FIT >= {self.min_fit:g}",
        ]
        if self.max_size:
            havings.append(f"SIZE <= {self.max_size}")
        return text + " HAVING " + ", ".join(havings) + ";"


@dataclass(frozen=True)
class ProfileStatement:
    """``PROFILE '<label>' {, '<label>'} FROM <src> BY <granularity>``.

    Data understanding: the support-over-time series of one itemset,
    rendered with a sparkline.
    """

    labels: Tuple[str, ...]
    source: str
    granularity: Granularity

    def render(self) -> str:
        rendered = ", ".join(
            "'" + label.replace("'", "''") + "'" for label in self.labels
        )
        return f"PROFILE {rendered} FROM {self.source} BY {self.granularity};"


@dataclass(frozen=True)
class ShowStatement:
    """Data-understanding helpers: ``SHOW SUMMARY | ITEMS | VOLUME BY g``."""

    what: str  # "summary" | "items" | "volume"
    granularity: Optional[Granularity] = None
    limit: Optional[int] = None

    def render(self) -> str:
        if self.what == "summary":
            return "SHOW SUMMARY;"
        if self.what == "items":
            suffix = f" LIMIT {self.limit}" if self.limit else ""
            return f"SHOW ITEMS{suffix};"
        rendered = f"SHOW VOLUME BY {self.granularity or Granularity.MONTH}"
        return rendered + ";"


@dataclass(frozen=True)
class SetBudgetStatement:
    """``SET BUDGET ...`` — session-level limits on subsequent runs.

    ``SET BUDGET OFF;`` clears them; otherwise any combination of
    ``TIME <seconds>``, ``CANDIDATES <n>`` and ``RULES <n>`` terms,
    optionally followed by ``STRICT`` (raise instead of returning a
    partial report).
    """

    max_seconds: Optional[float] = None
    max_candidates: Optional[int] = None
    max_rules: Optional[int] = None
    strict: bool = False
    off: bool = False

    def render(self) -> str:
        if self.off:
            return "SET BUDGET OFF;"
        terms = []
        if self.max_seconds is not None:
            terms.append(f"TIME {self.max_seconds:g}")
        if self.max_candidates is not None:
            terms.append(f"CANDIDATES {self.max_candidates}")
        if self.max_rules is not None:
            terms.append(f"RULES {self.max_rules}")
        text = "SET BUDGET " + ", ".join(terms)
        if self.strict:
            text += " STRICT"
        return text + ";"


@dataclass(frozen=True)
class SetEngineStatement:
    """``SET ENGINE <backend>;`` — pin the counting backend.

    ``SET ENGINE AUTO;`` (the session default) runs the ``packed``
    kernel; ``SET ENGINE OFF;`` is a back-compat alias for AUTO.  Backend names are validated at *parse* time against the
    registry in :mod:`repro.columnar.backends`, so a typo fails with the
    valid choices instead of deep in the engine.
    """

    engine: str = ""
    off: bool = False

    def render(self) -> str:
        if self.off:
            return "SET ENGINE OFF;"
        if self.engine == "auto":
            return "SET ENGINE AUTO;"
        return f"SET ENGINE {self.engine};"


@dataclass(frozen=True)
class SetWorkersStatement:
    """``SET WORKERS <n>|AUTO|OFF;`` — parsed and rendered, never run.

    Every mining run is serial, so the executor rejects the statement
    with an error that points at ``repro-cluster`` for scaling out.  It
    still parses (``AUTO`` is ``workers=None``, ``OFF`` is ``off=True``)
    so that scripts and logs holding it round-trip.
    """

    workers: Optional[int] = 1
    off: bool = False

    def render(self) -> str:
        if self.off:
            return "SET WORKERS OFF;"
        if self.workers is None:
            return "SET WORKERS AUTO;"
        return f"SET WORKERS {self.workers};"


@dataclass(frozen=True)
class SetIncrementalStatement:
    """``SET INCREMENTAL ON|OFF|AUTO;`` — incremental maintenance mode.

    Controls whether per-unit count state survives appends and is
    delta-refreshed (see :mod:`repro.incremental`): ``OFF`` (the session
    default) re-counts from scratch every run, ``ON`` pins the delta
    path, ``AUTO`` lets the planner fall back to a full recount above
    the dirty-fraction threshold.  Every mode yields bit-identical
    results; this is purely a performance knob.
    """

    mode: str = "off"

    def render(self) -> str:
        return f"SET INCREMENTAL {self.mode.upper()};"


@dataclass(frozen=True)
class SetTraceStatement:
    """``SET TRACE ON|OFF;`` — toggle per-run span tracing.

    With tracing on, every mining result carries a serialized span tree
    (see :mod:`repro.obs.trace`); traced queries bypass the service
    result cache because their timings are run-specific.
    """

    on: bool = False

    def render(self) -> str:
        return "SET TRACE ON;" if self.on else "SET TRACE OFF;"


@dataclass(frozen=True)
class SqlStatement:
    """Raw SQL passed through to the integrated query function."""

    sql: str

    def render(self) -> str:
        text = self.sql.strip()
        return text if text.endswith(";") else text + ";"


@dataclass(frozen=True)
class ExplainStatement:
    """``EXPLAIN [ANALYZE] <mine statement>``.

    Plain ``EXPLAIN`` describes the task without running it;
    ``EXPLAIN ANALYZE`` *runs* the query under forced tracing and
    renders the run's counters and span tree instead of its rules.
    """

    inner: Union[
        MineRulesStatement, MinePeriodsStatement, MinePeriodicitiesStatement
    ]
    analyze: bool = False

    def render(self) -> str:
        head = "EXPLAIN ANALYZE " if self.analyze else "EXPLAIN "
        return head + self.inner.render()


Statement = Union[
    MineRulesStatement,
    MinePeriodsStatement,
    MinePeriodicitiesStatement,
    MineItemsetsStatement,
    MineTrendsStatement,
    ExplainStatement,
    ProfileStatement,
    SetBudgetStatement,
    SetEngineStatement,
    SetIncrementalStatement,
    SetTraceStatement,
    SetWorkersStatement,
    ShowStatement,
    SqlStatement,
]
