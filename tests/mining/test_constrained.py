"""Unit tests for Task 3 — mining under a given temporal feature."""

from datetime import datetime

import pytest

from repro.core import mine_rules
from repro.core.items import Itemset
from repro.core.rulegen import RuleKey
from repro.errors import MiningParameterError
from repro.mining.constrained import (
    describe_feature,
    feature_predicate,
    mine_with_feature,
    restrict_database,
)
from repro.mining.tasks import ConstrainedTask, RuleThresholds
from repro.temporal import (
    CalendarExpression,
    CalendarPattern,
    CalendricPeriodicity,
    CyclicPeriodicity,
    Granularity,
    IntervalSet,
    TimeInterval,
)


SUMMER = TimeInterval(datetime(2025, 6, 1), datetime(2025, 9, 1))


class TestFeaturePredicate:
    def test_interval(self):
        predicate = feature_predicate(SUMMER, Granularity.DAY)
        assert predicate(datetime(2025, 7, 1))
        assert not predicate(datetime(2025, 9, 1))

    def test_interval_set(self):
        feature = IntervalSet([SUMMER])
        predicate = feature_predicate(feature, Granularity.DAY)
        assert predicate(datetime(2025, 6, 1))
        assert not predicate(datetime(2025, 5, 31))

    def test_cyclic(self):
        saturdays = CyclicPeriodicity(7, 2, Granularity.DAY)
        predicate = feature_predicate(saturdays, Granularity.DAY)
        assert predicate(datetime(2026, 7, 4, 15))  # Saturday afternoon
        assert not predicate(datetime(2026, 7, 6))

    def test_calendric(self):
        decembers = CalendricPeriodicity(
            CalendarPattern.parse("month=12"), Granularity.MONTH
        )
        predicate = feature_predicate(decembers, Granularity.MONTH)
        assert predicate(datetime(2025, 12, 25))
        assert not predicate(datetime(2025, 11, 25))

    def test_calendar_pattern(self):
        predicate = feature_predicate(
            CalendarPattern.parse("weekday=5|6"), Granularity.DAY
        )
        assert predicate(datetime(2026, 7, 4))
        assert not predicate(datetime(2026, 7, 6))

    def test_calendar_expression(self):
        expr = CalendarExpression.parse("month=12").union(
            CalendarExpression.parse("month=1")
        )
        predicate = feature_predicate(expr, Granularity.DAY)
        assert predicate(datetime(2026, 1, 15))
        assert not predicate(datetime(2026, 2, 15))

    def test_unsupported_feature(self):
        with pytest.raises(MiningParameterError):
            feature_predicate("next tuesday", Granularity.DAY)  # type: ignore[arg-type]


class TestRestrictDatabase:
    def test_interval_slice(self, seasonal_data):
        db = seasonal_data.database
        restricted = restrict_database(db, SUMMER, Granularity.DAY)
        assert 0 < len(restricted) < len(db)
        for stamp in restricted.timestamps:
            assert SUMMER.contains(stamp)

    def test_calendar_slice(self, seasonal_data):
        db = seasonal_data.database
        weekends = CalendarPattern.parse("weekday=5|6")
        restricted = restrict_database(db, weekends, Granularity.DAY)
        for stamp in restricted.timestamps:
            assert stamp.weekday() >= 5

    def test_interval_fast_path_equals_predicate_path(self, seasonal_data):
        db = seasonal_data.database
        fast = restrict_database(db, SUMMER, Granularity.DAY)
        slow = db.restrict(lambda t: SUMMER.contains(t.timestamp))
        assert fast.tids.tolist() == [t.tid for t in slow]


class TestMineWithFeature:
    def test_optimized_equals_definitional(self, seasonal_data):
        """Task CF ≡ restrict-then-plain-Apriori (the DESIGN.md invariant)."""
        db = seasonal_data.database
        task = ConstrainedTask(
            feature=SUMMER,
            thresholds=RuleThresholds(0.3, 0.6),
            granularity=Granularity.DAY,
            max_rule_size=3,
            max_consequent_size=1,
        )
        report = mine_with_feature(db, task)
        reference = mine_rules(
            db.restrict(lambda t: SUMMER.contains(t.timestamp)), 0.3, 0.6
        )
        reference_keys = {
            r.key() for r in reference
            if len(r.itemset) <= 3 and len(r.consequent) == 1
        }
        assert {r.key for r in report} == reference_keys

    def test_finds_embedded_rule_in_window(self, seasonal_data):
        db = seasonal_data.database
        catalog = db.catalog
        report = mine_with_feature(
            db,
            ConstrainedTask(
                feature=SUMMER,
                thresholds=RuleThresholds(0.3, 0.6),
                granularity=Granularity.DAY,
                max_rule_size=2,
            ),
        )
        season0 = RuleKey(
            Itemset([catalog.id("season0_a")]), Itemset([catalog.id("season0_b")])
        )
        assert season0 in {r.key for r in report}

    def test_measures_are_window_local(self, seasonal_data):
        db = seasonal_data.database
        report = mine_with_feature(
            db,
            ConstrainedTask(
                feature=SUMMER,
                thresholds=RuleThresholds(0.3, 0.6),
                granularity=Granularity.DAY,
                max_rule_size=2,
            ),
        )
        restricted = restrict_database(db, SUMMER, Granularity.DAY)
        baskets = [set(basket) for basket in restricted.iter_baskets()]
        for record in report:
            itemset = set(record.rule.itemset)
            expected = sum(itemset <= basket for basket in baskets) / len(baskets)
            assert record.rule.support == pytest.approx(expected)

    def test_empty_window_yields_empty_report(self, seasonal_data):
        future = TimeInterval(datetime(2030, 1, 1), datetime(2030, 2, 1))
        report = mine_with_feature(
            seasonal_data.database,
            ConstrainedTask(
                feature=future,
                thresholds=RuleThresholds(0.3, 0.6),
            ),
        )
        assert len(report) == 0
        assert report.n_transactions == 0

    def test_effective_granularity_from_feature(self):
        saturdays = CyclicPeriodicity(7, 2, Granularity.DAY)
        task = ConstrainedTask(
            feature=saturdays, thresholds=RuleThresholds(0.3, 0.6)
        )
        assert task.effective_granularity() is Granularity.DAY

    def test_effective_granularity_default(self):
        task = ConstrainedTask(
            feature=CalendarPattern.parse("month=12"),
            thresholds=RuleThresholds(0.3, 0.6),
        )
        assert task.effective_granularity() is Granularity.DAY


class TestDescribeFeature:
    def test_descriptions(self):
        assert describe_feature(SUMMER).startswith("period [")
        assert "every 7 days" in describe_feature(
            CyclicPeriodicity(7, 2, Granularity.DAY)
        )
        assert "month=12" in describe_feature(CalendarPattern.parse("month=12"))
        assert "OR" in describe_feature(
            CalendarExpression.parse("month=12").union(
                CalendarExpression.parse("month=1")
            )
        )
