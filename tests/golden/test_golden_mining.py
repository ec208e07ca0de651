"""Golden-file regression suite over small canonical datasets.

Each test mines a fixed dataset with fixed parameters and locks the
*complete* result set — rule keys, unit ranges, and every measure
rounded to 10 decimal places — into a JSON snapshot.  Refactors of the
counting hot path (new backends, layout changes) cannot silently alter
mining output: any drift shows up as a readable JSON diff.  Every
counting backend is checked against the *same* snapshot, which doubles
as a fixed-point differential test.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import pytest

from repro.core import TransactionDatabase
from repro.datagen import QuestConfig, generate_baskets
from repro.mining.engine import TemporalMiner
from repro.mining.tasks import (
    ConstrainedTask,
    PeriodicityTask,
    RuleThresholds,
    ValidPeriodTask,
)
from repro.temporal.granularity import Granularity
from repro.temporal.interval import TimeInterval

def _round(value: float) -> float:
    return round(float(value), 10)


def _itemset(itemset) -> list:
    return [int(item) for item in itemset.items]


def serialize_report(report) -> dict:
    """A canonical, diff-friendly rendering of a mining report."""
    records = []
    for result in report.results:
        if report.task_name == "valid_periods":
            records.append(
                {
                    "antecedent": _itemset(result.key.antecedent),
                    "consequent": _itemset(result.key.consequent),
                    "periods": [
                        {
                            "first_unit": period.first_unit,
                            "last_unit": period.last_unit,
                            "n_units": period.n_units,
                            "n_valid_units": period.n_valid_units,
                            "frequency": _round(period.frequency),
                            "temporal_support": _round(period.temporal_support),
                            "temporal_confidence": _round(
                                period.temporal_confidence
                            ),
                        }
                        for period in result.periods
                    ],
                }
            )
        elif report.task_name == "periodicities":
            records.append(
                {
                    "antecedent": _itemset(result.key.antecedent),
                    "consequent": _itemset(result.key.consequent),
                    "periodicity": result.periodicity.describe(),
                    "n_member_units": result.n_member_units,
                    "n_valid_units": result.n_valid_units,
                    "match_ratio": _round(result.match_ratio),
                    "temporal_support": _round(result.temporal_support),
                    "temporal_confidence": _round(result.temporal_confidence),
                }
            )
        else:  # constrained
            rule = result.rule
            records.append(
                {
                    "antecedent": _itemset(rule.antecedent),
                    "consequent": _itemset(rule.consequent),
                    "support": _round(rule.support),
                    "confidence": _round(rule.confidence),
                    "support_count": rule.support_count,
                }
            )
    return {
        "task": report.task_name,
        "n_transactions": report.n_transactions,
        "n_units": report.n_units,
        "n_results": len(report.results),
        "results": records,
    }


def canonical_basket_db() -> TransactionDatabase:
    """Three weeks of a deterministic weekday/weekend shopping pattern."""
    db = TransactionDatabase()
    base = datetime(2026, 3, 2)  # a Monday
    for day in range(21):
        stamp = base + timedelta(days=day)
        weekend = stamp.weekday() >= 5
        db.add(stamp, ["bread", "butter"])
        db.add(stamp + timedelta(hours=3), ["bread", "milk"])
        if weekend:
            db.add(stamp + timedelta(hours=6), ["beer", "chips"])
            db.add(stamp + timedelta(hours=7), ["beer", "chips", "salsa"])
        else:
            db.add(stamp + timedelta(hours=6), ["coffee", "bagel"])
        db.add(stamp + timedelta(hours=9), ["bread", "butter", "milk"])
    return db


def canonical_quest_db() -> TransactionDatabase:
    """A small seeded Quest database spread hourly over ~2 weeks."""
    config = QuestConfig(
        n_transactions=320,
        avg_transaction_size=5.0,
        avg_pattern_size=3.0,
        n_items=30,
        n_patterns=10,
        seed=5,
    )
    db = TransactionDatabase()
    start = datetime(2026, 1, 5)
    for index, basket in enumerate(generate_baskets(config)):
        if not basket:
            basket = (index % 30,)
        db.add(start + timedelta(hours=index), basket)
    return db


@pytest.fixture(scope="module")
def basket_db() -> TransactionDatabase:
    return canonical_basket_db()


@pytest.fixture(scope="module")
def quest_db() -> TransactionDatabase:
    return canonical_quest_db()


def test_golden_valid_periods_baskets(basket_db, golden_check):
    task = ValidPeriodTask(
        granularity=Granularity.DAY,
        thresholds=RuleThresholds(min_support=0.3, min_confidence=0.6),
        min_frequency=0.8,
        min_coverage=2,
    )
    report = TemporalMiner(basket_db).valid_periods(task)
    golden_check("valid_periods_baskets", serialize_report(report))


def test_golden_periodicities_baskets(basket_db, golden_check):
    task = PeriodicityTask(
        granularity=Granularity.DAY,
        thresholds=RuleThresholds(min_support=0.3, min_confidence=0.6),
        max_period=7,
        min_repetitions=2,
        min_match=1.0,
    )
    report = TemporalMiner(basket_db).periodicities(task)
    golden_check("periodicities_baskets", serialize_report(report))


def test_golden_interleaved_baskets(basket_db, golden_check):
    task = PeriodicityTask(
        granularity=Granularity.DAY,
        thresholds=RuleThresholds(min_support=0.3, min_confidence=0.6),
        max_period=7,
        min_repetitions=2,
        min_match=1.0,
    )
    report = TemporalMiner(basket_db).periodicities(task, interleaved=True)
    golden_check("periodicities_interleaved_baskets", serialize_report(report))


def test_golden_constrained_baskets(basket_db, golden_check):
    start, end = basket_db.time_span()
    task = ConstrainedTask(
        feature=TimeInterval(start, start + timedelta(days=7)),
        thresholds=RuleThresholds(min_support=0.2, min_confidence=0.6),
    )
    report = TemporalMiner(basket_db).with_feature(task)
    golden_check("constrained_baskets", serialize_report(report))


@pytest.mark.parametrize("backend", ("dict", "hashtree", "vertical", "packed"))
def test_golden_valid_periods_quest(quest_db, golden_check, backend):
    task = ValidPeriodTask(
        granularity=Granularity.DAY,
        thresholds=RuleThresholds(min_support=0.15, min_confidence=0.5),
        min_frequency=0.75,
        min_coverage=2,
    )
    report = TemporalMiner(quest_db, counting=backend).valid_periods(task)
    # All backends share ONE snapshot: output must not depend on how the
    # counting was executed.
    golden_check("valid_periods_quest", serialize_report(report))


def test_golden_periodicities_quest(quest_db, golden_check):
    task = PeriodicityTask(
        granularity=Granularity.DAY,
        thresholds=RuleThresholds(min_support=0.15, min_confidence=0.5),
        max_period=5,
        min_repetitions=2,
        min_match=0.8,
    )
    report = TemporalMiner(quest_db).periodicities(task)
    golden_check("periodicities_quest", serialize_report(report))
