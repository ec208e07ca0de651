"""Task 1 — discovery of the valid time periods of association rules.

Given per-unit rule validity (the boolean sequence from
:mod:`repro.mining.rulespace`), a *valid period* is a unit interval
``[a..b]`` that

* starts and ends at units where the rule holds,
* spans at least ``min_coverage`` units, and
* contains the rule's validity in at least ``min_frequency`` of its units
  (1.0 = an unbroken run; lower values tolerate gaps).

Only **maximal** qualifying intervals are reported: an interval contained
in a strictly larger qualifying interval is suppressed.  With
``min_frequency == 1.0`` this reduces to the maximal runs of consecutive
valid units, which the tests cross-check.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.apriori import AnyDatabase
from repro.mining.context import PerUnitCounts, TemporalContext, per_unit_frequent_itemsets
from repro.mining.results import MiningReport, ValidPeriod, ValidPeriodRule
from repro.mining.rulespace import RuleTable, RuleUnitSeries, candidate_rules, maximal_runs
from repro.mining.tasks import ValidPeriodTask
from repro.obs.trace import tracer_of
from repro.runtime.budget import RunInterrupted, RunMonitor
from repro.temporal.granularity import unit_starts
from repro.temporal.interval import TimeInterval

_EPS = 1e-9


def maximal_valid_windows(
    valid: Sequence[bool], min_frequency: float, min_coverage: int
) -> List[Tuple[int, int, int]]:
    """Maximal qualifying windows of a boolean validity sequence.

    Returns ``(start_offset, end_offset, n_valid)`` triples with inclusive
    offsets into ``valid``, sorted by start.

    >>> maximal_valid_windows([1, 1, 0, 1, 1, 1], 1.0, 2)
    [(0, 1, 2), (3, 5, 3)]
    >>> maximal_valid_windows([1, 1, 0, 1, 1, 1], 0.8, 2)
    [(0, 5, 5)]
    """
    flags = np.asarray(valid, dtype=bool)
    if min_frequency >= 1.0 - _EPS:
        _, starts, stops = maximal_runs(flags[None])
        return [
            (start, stop - 1, stop - start)
            for start, stop in zip(starts.tolist(), stops.tolist())
            if stop - start >= min_coverage
        ]
    positions = np.flatnonzero(flags)
    v = len(positions)
    if v == 0:
        return []
    # Candidate windows start and end at valid units: index them by the
    # positions array.  lengths[i, j] = window length; valid count = j-i+1.
    starts = positions[:, None]
    ends = positions[None, :]
    lengths = ends - starts + 1
    n_valid = np.arange(v)[None, :] - np.arange(v)[:, None] + 1
    with np.errstate(divide="ignore", invalid="ignore"):
        frequency = np.where(lengths > 0, n_valid / np.maximum(lengths, 1), 0.0)
    qualify = (
        (lengths >= min_coverage)
        & (n_valid >= 1)
        & (frequency >= min_frequency - _EPS)
    )
    # Also admit singleton windows when coverage allows.
    if not qualify.any():
        return []
    # reach[i, j] = exists qualifying window [i' <= i, j' >= j].
    reach = np.logical_or.accumulate(qualify, axis=0)
    reach = np.logical_or.accumulate(reach[:, ::-1], axis=1)[:, ::-1]
    windows: List[Tuple[int, int, int]] = []
    for i, j in zip(*np.nonzero(qualify)):
        dominated = (i > 0 and reach[i - 1, j]) or (j < v - 1 and reach[i, j + 1])
        if not dominated:
            windows.append((int(positions[i]), int(positions[j]), int(j - i + 1)))
    windows.sort()
    return windows


def _table_periods(
    table: RuleTable,
    context: TemporalContext,
    min_frequency: float,
    min_coverage: int,
) -> List[Tuple[ValidPeriod, ...]]:
    """The maximal valid periods of every rule of ``table``, row by row.

    With ``min_frequency == 1.0`` the periods are the table's maximal
    runs (:meth:`RuleTable.runs`) spanning ``min_coverage`` units —
    filtered, measured and dated for all rules at once.  Otherwise the
    gap-tolerant window search of :func:`maximal_valid_windows` runs rule
    by rule.  Every measure is a ratio of integer sums over the period's
    units, so the floats match the per-rule definitions bit for bit.
    """
    if min_frequency >= 1.0 - _EPS:
        rows, starts, stops, item_sums, antecedent_sums = table.runs()
        keep = stops - starts >= min_coverage
        rows, starts, stops = rows[keep], starts[keep], stops[keep]
        item_sums, antecedent_sums = item_sums[keep], antecedent_sums[keep]
        n_valid = stops - starts
    else:
        windows = [
            (row, start, end + 1, n_valid)
            for row in range(len(table))
            for start, end, n_valid in maximal_valid_windows(
                table.valid[row], min_frequency, min_coverage
            )
        ]
        rows, starts, stops, n_valid = np.array(windows, dtype=np.int64).reshape(-1, 4).T
        item_sums, antecedent_sums = table.window_sums(rows, starts, stops)
    sizes = np.concatenate(([0], np.cumsum(context.unit_sizes)))
    size_sums = sizes[stops] - sizes[starts]
    n_units = stops - starts
    with np.errstate(divide="ignore", invalid="ignore"):
        support = np.where(size_sums > 0, item_sums / np.maximum(size_sums, 1), 0.0)
        confidence = np.where(
            antecedent_sums > 0, item_sums / np.maximum(antecedent_sums, 1), 0.0
        )
    first = context.first_unit
    periods: List[List[ValidPeriod]] = [[] for _ in range(len(table))]
    for row, lo, hi, start, end, units, hits, frequency, supp, conf in zip(
        rows.tolist(),
        (first + starts).tolist(),
        (first + stops - 1).tolist(),
        unit_starts(first + starts, context.granularity).tolist(),
        unit_starts(first + stops, context.granularity).tolist(),
        n_units.tolist(),
        n_valid.tolist(),
        (n_valid / np.maximum(n_units, 1)).tolist(),
        support.tolist(),
        confidence.tolist(),
    ):
        # Positional in field order: keyword calls cost twice as much here.
        periods[row].append(
            ValidPeriod(TimeInterval(start, end), lo, hi, units, hits, frequency, supp, conf)
        )
    return [tuple(row) for row in periods]


def periods_for_series(
    series: RuleUnitSeries,
    context: TemporalContext,
    min_frequency: float,
    min_coverage: int,
) -> Tuple[ValidPeriod, ...]:
    """The maximal valid periods of one rule with measures (empty if none).

    The periods of the series' whole :class:`RuleTable` are computed on
    the first call (:func:`_table_periods`); each later call hands out
    its own row — an immutable tuple, shared, not a copy.
    """
    table = series.table
    memo = (_table_periods, context, min_frequency, min_coverage)
    periods = table.derived.get(memo)
    if periods is None:
        periods = table.derived[memo] = _table_periods(
            table, context, min_frequency, min_coverage
        )
    return periods[series.row]


def discover_valid_periods(
    database: AnyDatabase,
    task: ValidPeriodTask,
    context: Optional[TemporalContext] = None,
    counts: Optional[PerUnitCounts] = None,
    counting: str = "auto",
    monitor: Optional[RunMonitor] = None,
) -> MiningReport:
    """Run Task 1 end to end.

    Args:
        database: the timestamped transaction database.
        task: task parameters.
        context: optional pre-built temporal context (reused by the
            engine across tasks at the same granularity).
        counts: optional pre-computed per-unit counts (must match the
            task's thresholds; used by ablation benchmarks).
        counting: counting-backend name, or ``"auto"`` (see
            :mod:`repro.columnar.backends`).
        monitor: optional run monitor; an exhausted budget or a cancel
            stops the run at a granule/pass boundary and yields a report
            flagged ``partial=True`` whose rules are a subset of the
            unbudgeted run's (strict mode raises instead).

    Returns:
        A :class:`MiningReport` of :class:`ValidPeriodRule` records.
    """
    monitor = monitor or RunMonitor()
    started = time.perf_counter()
    tracer = tracer_of(monitor)
    if context is None:
        context = TemporalContext(database, task.granularity)
    if counts is None:
        with tracer.span("count", task="valid_periods"):
            counts = per_unit_frequent_itemsets(
                context,
                task.thresholds.min_support,
                min_units=task.min_valid_units,
                max_size=task.max_rule_size,
                counting=counting,
                monitor=monitor,
            )
    series_list = candidate_rules(
        counts,
        task.thresholds.min_confidence,
        min_valid_units=task.min_valid_units,
        max_consequent_size=task.max_consequent_size,
    )
    findings: List[ValidPeriodRule] = []
    # The emission phase runs even after a counting-phase stop: deriving
    # rules from the already-counted passes is cheap, and it is exactly
    # the partial result the stopped run has to show.  Only the rule cap
    # still applies here.
    try:
        with tracer.span("emit", candidates=len(series_list)):
            for series in series_list:
                periods = periods_for_series(
                    series, context, task.min_frequency, task.min_coverage
                )
                if periods:
                    monitor.charge_rule()
                    findings.append(
                        ValidPeriodRule(
                            key=series.key,
                            granularity=context.granularity,
                            periods=periods,
                        )
                    )
    except RunInterrupted:
        pass
    elapsed = time.perf_counter() - started
    monitor.raise_for_strict()
    return MiningReport(
        task_name="valid_periods",
        results=tuple(findings),
        n_transactions=len(database),
        n_units=context.n_units,
        elapsed_seconds=elapsed,
        partial=monitor.stopped,
        diagnostics=monitor.diagnostics(),
    )
