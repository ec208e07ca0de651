"""Valid periods of *itemsets* (frequent-pattern level, IADT'98 framing).

The companion paper on valid-period discovery defines temporal support
for itemsets before rules: an itemset's valid period is a maximal
interval of units in which the itemset is locally frequent.  Rule-level
analysis (:mod:`repro.mining.valid_periods`) adds the confidence
dimension; itemset-level analysis is what an analyst wants when asking
"when does this *product bundle* sell?" without fixing a direction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.apriori import AnyDatabase
from repro.core.items import ItemCatalog, Itemset
from repro.mining.context import PerUnitCounts, TemporalContext, per_unit_frequent_itemsets
from repro.mining.results import MiningReport, ValidPeriod
from repro.mining.tasks import ValidPeriodTask
from repro.mining.valid_periods import maximal_valid_windows
from repro.runtime.budget import RunMonitor
from repro.temporal.granularity import Granularity
from repro.temporal.interval import TimeInterval


@dataclass(frozen=True)
class ItemsetPeriods:
    """⟨itemset, valid periods⟩ — one frequent pattern's temporal extent."""

    itemset: Itemset
    granularity: Granularity
    periods: Tuple[ValidPeriod, ...]

    def format(self, catalog: Optional[ItemCatalog] = None) -> str:
        rendered = (
            catalog.format(self.itemset)
            if catalog is not None
            else ", ".join(str(i) for i in self.itemset)
        )
        periods = "; ".join(
            f"{p.label(self.granularity)} (supp={p.temporal_support:.3f})"
            for p in self.periods
        )
        return f"{{{rendered}}}  DURING  {periods}"

    def __str__(self) -> str:
        return self.format()


def discover_itemset_periods(
    database: AnyDatabase,
    task: ValidPeriodTask,
    min_size: int = 2,
    context: Optional[TemporalContext] = None,
    counts: Optional[PerUnitCounts] = None,
    counting: str = "auto",
    monitor: Optional[RunMonitor] = None,
) -> MiningReport:
    """Find every itemset's maximal valid periods.

    Args:
        database: the timestamped transaction database.
        task: thresholds and period constraints (``min_confidence`` is
            ignored — itemsets have no direction).
        min_size: smallest itemset reported (default 2; singletons are
            usually noise at this level).
        context / counts: optional precomputed structures.
        monitor: optional run monitor; an exhausted budget or a cancel
            stops the counting early and the report is flagged
            ``partial=True``, its itemsets a subset of the full run's.

    Returns:
        A :class:`MiningReport` of :class:`ItemsetPeriods` records.
    """
    monitor = monitor or RunMonitor()
    started = time.perf_counter()
    if context is None:
        context = TemporalContext(database, task.granularity)
    if counts is None:
        counts = per_unit_frequent_itemsets(
            context,
            task.thresholds.min_support,
            min_units=task.min_valid_units,
            max_size=task.max_rule_size,
            counting=counting,
            monitor=monitor,
        )
    thresholds = context.local_min_counts(task.thresholds.min_support)
    findings: List[ItemsetPeriods] = []
    for itemset in sorted(counts.counts):
        if len(itemset) < min_size:
            continue
        row = counts.counts[itemset]
        valid = row >= thresholds
        windows = maximal_valid_windows(valid, task.min_frequency, task.min_coverage)
        if not windows:
            continue
        periods: List[ValidPeriod] = []
        for start_offset, end_offset, n_valid in windows:
            mask = np.zeros(context.n_units, dtype=bool)
            mask[start_offset : end_offset + 1] = True
            denominator = int(context.unit_sizes[mask].sum())
            support = (
                float(row[mask].sum()) / denominator if denominator else 0.0
            )
            n_units = end_offset - start_offset + 1
            periods.append(
                ValidPeriod(
                    interval=TimeInterval.from_units(
                        context.to_absolute(start_offset),
                        context.to_absolute(end_offset),
                        context.granularity,
                    ),
                    first_unit=context.to_absolute(start_offset),
                    last_unit=context.to_absolute(end_offset),
                    n_units=n_units,
                    n_valid_units=n_valid,
                    frequency=n_valid / n_units,
                    temporal_support=support,
                    temporal_confidence=1.0,  # undirected: no confidence
                )
            )
        findings.append(
            ItemsetPeriods(
                itemset=itemset,
                granularity=context.granularity,
                periods=tuple(periods),
            )
        )
    monitor.raise_for_strict()
    elapsed = time.perf_counter() - started
    return MiningReport(
        task_name="itemset_periods",
        results=tuple(findings),
        n_transactions=len(database),
        n_units=context.n_units,
        elapsed_seconds=elapsed,
        partial=monitor.stopped,
        diagnostics=monitor.diagnostics(),
    )
