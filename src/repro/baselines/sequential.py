"""Naive per-unit sequential mining — the unoptimized temporal baseline.

The obvious way to find temporal rules is to run the whole Apriori +
rule-generation pipeline **independently in every time unit** and then
stitch the per-unit results together.  It computes exactly the same
per-unit validity information as the shared-counting engine in
:mod:`repro.mining.context`, but re-does candidate generation and
counting per unit and cannot prune across units (no temporal
anti-monotone prune, no cycle pruning/skipping).  Experiment E7 uses it
as the ablation baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.apriori import AprioriOptions, apriori
from repro.core.items import Itemset
from repro.core.rulegen import RuleKey, generate_rules
from repro.core.transactions import Transaction, TransactionDatabase
from repro.mining.context import TemporalContext
from repro.mining.results import MiningReport, PeriodicityFinding, ValidPeriodRule
from repro.mining.tasks import PeriodicityTask, ValidPeriodTask
from repro.mining.valid_periods import periods_for_series
from repro.mining.periodicities import periodicity_findings  # shared detection
from repro.mining.rulespace import RuleUnitSeries
from repro.temporal.granularity import Granularity, unit_bounds


@dataclass
class SequentialScan:
    """Per-unit validity computed the naive way (one Apriori per unit)."""

    context: TemporalContext
    series: List[RuleUnitSeries]
    elapsed_seconds: float


def _unit_database(
    context: TemporalContext, offset: int
) -> TransactionDatabase:
    unit_db = TransactionDatabase(catalog=context.database.catalog)
    start, _end = unit_bounds(context.to_absolute(offset), context.granularity)
    for position, basket in enumerate(context.baskets_in_unit(offset)):
        unit_db.add(start, basket, tid=position)
    return unit_db


def sequential_scan(
    database: TransactionDatabase,
    granularity: Granularity,
    min_support: float,
    min_confidence: float,
    max_rule_size: int = 0,
    max_consequent_size: int = 1,
    context: Optional[TemporalContext] = None,
) -> SequentialScan:
    """Mine every unit independently and assemble validity sequences.

    For each unit, runs plain Apriori + rule generation; a rule is valid
    in the unit when it appears in that unit's rule list.  Per-unit
    counts for measures are taken from the per-unit runs.
    """
    started = time.perf_counter()
    if context is None:
        context = TemporalContext(database, granularity)
    n_units = context.n_units
    itemset_counts: Dict[RuleKey, np.ndarray] = {}
    antecedent_counts: Dict[RuleKey, np.ndarray] = {}
    validity: Dict[RuleKey, np.ndarray] = {}
    for offset in range(n_units):
        baskets = context.baskets_in_unit(offset)
        if not baskets:
            continue
        unit_db = _unit_database(context, offset)
        frequent = apriori(
            unit_db, min_support, options=AprioriOptions(max_size=max_rule_size)
        )
        rules = generate_rules(
            frequent, min_confidence, max_consequent_size=max_consequent_size
        )
        for rule in rules:
            key = rule.key()
            if key not in validity:
                validity[key] = np.zeros(n_units, dtype=bool)
                itemset_counts[key] = np.zeros(n_units, dtype=np.int64)
                antecedent_counts[key] = np.zeros(n_units, dtype=np.int64)
            validity[key][offset] = True
            itemset_counts[key][offset] = rule.support_count
            antecedent_counts[key][offset] = round(
                rule.antecedent_support * len(unit_db)
            )
    series = [
        RuleUnitSeries(
            key=key,
            itemset_counts=itemset_counts[key],
            antecedent_counts=antecedent_counts[key],
            valid=valid,
        )
        for key, valid in validity.items()
    ]
    series.sort(key=lambda s: (s.key.antecedent.items, s.key.consequent.items))
    elapsed = time.perf_counter() - started
    return SequentialScan(context=context, series=series, elapsed_seconds=elapsed)


def sequential_valid_periods(
    database: TransactionDatabase,
    task: ValidPeriodTask,
    context: Optional[TemporalContext] = None,
) -> MiningReport:
    """Task 1 computed the naive way (reference for the ablation).

    Note: because per-unit runs only report rules *valid* in the unit,
    the temporal support/confidence of gap units inside tolerant periods
    (``min_frequency < 1``) is reconstructed from valid units only; with
    ``min_frequency == 1.0`` results match the engine exactly.
    """
    scan = sequential_scan(
        database,
        task.granularity,
        task.thresholds.min_support,
        task.thresholds.min_confidence,
        max_rule_size=task.max_rule_size,
        max_consequent_size=task.max_consequent_size,
        context=context,
    )
    findings: List[ValidPeriodRule] = []
    for series in scan.series:
        if series.n_valid_units() < task.min_valid_units:
            continue
        periods = periods_for_series(
            series, scan.context, task.min_frequency, task.min_coverage
        )
        if periods:
            findings.append(
                ValidPeriodRule(
                    key=series.key,
                    granularity=scan.context.granularity,
                    periods=tuple(periods),
                )
            )
    return MiningReport(
        task_name="valid_periods(sequential)",
        results=tuple(findings),
        n_transactions=len(database),
        n_units=scan.context.n_units,
        elapsed_seconds=scan.elapsed_seconds,
    )


def sequential_periodicities(
    database: TransactionDatabase,
    task: PeriodicityTask,
    context: Optional[TemporalContext] = None,
) -> MiningReport:
    """Task 2 computed the naive way (reference for the ablation)."""
    scan = sequential_scan(
        database,
        task.granularity,
        task.thresholds.min_support,
        task.thresholds.min_confidence,
        max_rule_size=task.max_rule_size,
        max_consequent_size=task.max_consequent_size,
        context=context,
    )
    kept = [s for s in scan.series if s.n_valid_units() >= task.min_repetitions]
    findings: List[PeriodicityFinding] = []
    if kept:
        findings = list(
            periodicity_findings(
                lambda row: kept[row].key,
                np.stack([s.valid for s in kept]),
                np.stack([s.itemset_counts for s in kept]),
                np.stack([s.antecedent_counts for s in kept]),
                scan.context,
                task,
            )
        )
    return MiningReport(
        task_name="periodicities(sequential)",
        results=tuple(findings),
        n_transactions=len(database),
        n_units=scan.context.n_units,
        elapsed_seconds=scan.elapsed_seconds,
    )
