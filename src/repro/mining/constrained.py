"""Task 3 — mining association rules under a *given* temporal feature.

The user supplies the temporal feature (an interval, an interval set, a
periodicity, or a calendar pattern/expression); the task restricts the
database to the transactions falling inside the feature and mines rules
there with the classical thresholds.  Rules that are invisible globally —
diluted below ``min_support`` by the rest of the history — surface once
the data is restricted, which is the paper's headline motivation.
"""

from __future__ import annotations

import time
from datetime import datetime
from typing import Callable, List, Optional

import numpy as np

from repro.columnar.encoded import EncodedDatabase
from repro.core.apriori import AnyDatabase, AprioriOptions, apriori
from repro.core.rulegen import generate_rules
from repro.errors import MiningParameterError
from repro.mining.results import ConstrainedRule, MiningReport
from repro.mining.tasks import ConstrainedTask, TemporalFeature
from repro.obs.trace import tracer_of
from repro.runtime.budget import RunInterrupted, RunMonitor
from repro.temporal.calendar_algebra import CalendarExpression, CalendarPattern
from repro.temporal.granularity import Granularity, stamp_column, unit_index, unit_indices
from repro.temporal.interval import IntervalSet, TimeInterval
from repro.temporal.periodicity import CalendricPeriodicity, CyclicPeriodicity


def feature_predicate(
    feature: TemporalFeature, granularity: Granularity
) -> Callable[[datetime], bool]:
    """A timestamp predicate implementing membership in ``feature``.

    Unit-based features (periodicities) classify the *unit* containing
    the timestamp at ``granularity``; instant-based features (intervals,
    calendars) classify the timestamp directly.
    """
    if isinstance(feature, TimeInterval):
        return feature.contains
    if isinstance(feature, IntervalSet):
        return feature.contains
    if isinstance(feature, CyclicPeriodicity):
        period = feature

        def in_cycle(instant: datetime) -> bool:
            return period.matches_unit(unit_index(instant, period.granularity))

        return in_cycle
    if isinstance(feature, CalendricPeriodicity):
        calendric = feature

        def in_calendar_units(instant: datetime) -> bool:
            return calendric.matches_unit(
                unit_index(instant, calendric.granularity)
            )

        return in_calendar_units
    if isinstance(feature, (CalendarPattern, CalendarExpression)):
        return feature.matches_instant
    raise MiningParameterError(f"unsupported temporal feature {feature!r}")


def describe_feature(feature: TemporalFeature) -> str:
    """Short human-readable description of a temporal feature."""
    if isinstance(feature, TimeInterval):
        return f"period {feature}"
    if isinstance(feature, IntervalSet):
        return f"periods {feature!r}"
    if isinstance(feature, (CyclicPeriodicity, CalendricPeriodicity)):
        return feature.describe()
    if isinstance(feature, CalendarPattern):
        return f"calendar[{feature.format()}]"
    if isinstance(feature, CalendarExpression):
        return f"calendar[{feature.format()}]"
    return str(feature)


def restrict_database(
    database: AnyDatabase,
    feature: TemporalFeature,
    granularity: Granularity,
) -> EncodedDatabase:
    """The encoded sub-database of transactions inside the temporal feature.

    One boolean row mask selects the members: intervals compare the
    stamp column against their half-open bounds, unit-based features
    (periodicities) classify each *distinct* unit once, and calendar
    patterns and expressions test each instant.
    """
    encoded = database if isinstance(database, EncodedDatabase) else database.encoded()
    if isinstance(feature, TimeInterval):
        start, end = stamp_column((feature.start, feature.end))
        mask = (encoded.stamps >= start) & (encoded.stamps < end)
    elif isinstance(feature, (CyclicPeriodicity, CalendricPeriodicity)):
        units = unit_indices(encoded.stamps, feature.granularity)
        distinct, positions = np.unique(units, return_inverse=True)
        member = np.fromiter(
            map(feature.matches_unit, distinct.tolist()), dtype=bool, count=len(distinct)
        )
        mask = member[positions]
    else:
        predicate = feature_predicate(feature, granularity)
        mask = np.fromiter(
            map(predicate, encoded.timestamps), dtype=bool, count=len(encoded)
        )
    return encoded.select(mask)


def mine_with_feature(
    database: AnyDatabase,
    task: ConstrainedTask,
    apriori_options: Optional[AprioriOptions] = None,
    counting: str = "auto",
    monitor: Optional[RunMonitor] = None,
) -> MiningReport:
    """Run Task 3 end to end.

    ``counting`` selects the Apriori counting backend when
    ``apriori_options`` is not given (explicit options win).

    Returns a :class:`MiningReport` of :class:`ConstrainedRule` records,
    sorted by descending confidence then support (the order
    :func:`repro.core.rulegen.generate_rules` produces).  A monitored
    run that stops early reports the rules derivable from Apriori's
    completed passes with ``partial=True`` (strict mode raises).
    """
    monitor = monitor or RunMonitor()
    started = time.perf_counter()
    tracer = tracer_of(monitor)
    granularity = task.effective_granularity()
    with tracer.span("restrict"):
        restricted = restrict_database(database, task.feature, granularity)
    description = describe_feature(task.feature)
    results: List[ConstrainedRule] = []
    if len(restricted):
        options = apriori_options or AprioriOptions(
            counting=counting, max_size=task.max_rule_size
        )
        if options.max_size != task.max_rule_size and task.max_rule_size:
            options = AprioriOptions(
                counting=options.counting,
                transaction_reduction=options.transaction_reduction,
                max_size=task.max_rule_size,
            )
        with tracer.span("count", task="constrained", n_transactions=len(restricted)):
            frequent = apriori(
                restricted,
                task.thresholds.min_support,
                options=options,
                monitor=monitor,
            )
        rules = generate_rules(
            frequent,
            task.thresholds.min_confidence,
            max_consequent_size=task.max_consequent_size,
        )
        if task.required_items:
            catalog = restricted.catalog
            # An unknown label can match no rule at all.
            if all(label in catalog for label in task.required_items):
                required = {catalog.id(label) for label in task.required_items}
                rules = [
                    rule
                    for rule in rules
                    if required.issubset(set(rule.itemset))
                ]
            else:
                rules = []
        try:
            for rule in rules:
                monitor.charge_rule()
                results.append(
                    ConstrainedRule(rule=rule, feature_description=description)
                )
        except RunInterrupted:
            pass
    elapsed = time.perf_counter() - started
    monitor.raise_for_strict()
    return MiningReport(
        task_name="constrained",
        results=tuple(results),
        n_transactions=len(restricted),
        n_units=0,
        elapsed_seconds=elapsed,
        partial=monitor.stopped,
        diagnostics=monitor.diagnostics(),
    )
