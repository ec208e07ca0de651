"""Unit tests for the TemporalMiner facade."""

from datetime import datetime

import pytest

from repro.errors import MiningParameterError
from repro.mining.engine import TemporalMiner
from repro.runtime.budget import RunBudget
from repro.mining.tasks import (
    ConstrainedTask,
    PeriodicityTask,
    RuleThresholds,
    ValidPeriodTask,
)
from repro.temporal import Granularity, TimeInterval


class TestContextCaching:
    def test_context_is_cached_per_granularity(self, seasonal_data):
        miner = TemporalMiner(seasonal_data.database)
        first = miner.context(Granularity.MONTH)
        second = miner.context(Granularity.MONTH)
        assert first is second
        assert miner.context(Granularity.DAY) is not first

    def test_invalidate_clears_cache(self, seasonal_data):
        miner = TemporalMiner(seasonal_data.database)
        first = miner.context(Granularity.MONTH)
        miner.invalidate()
        assert miner.context(Granularity.MONTH) is not first


class TestDispatch:
    def test_valid_periods(self, seasonal_data):
        miner = TemporalMiner(seasonal_data.database)
        report = miner.valid_periods(
            ValidPeriodTask(
                granularity=Granularity.MONTH,
                thresholds=RuleThresholds(0.2, 0.6),
                max_rule_size=2,
            )
        )
        assert report.task_name == "valid_periods"
        assert len(report) >= 2

    def test_periodicities_generic_and_interleaved(self, periodic_data):
        miner = TemporalMiner(periodic_data.database)
        task = PeriodicityTask(
            granularity=Granularity.DAY,
            thresholds=RuleThresholds(0.25, 0.6),
            max_period=8,
            min_repetitions=5,
            max_rule_size=2,
        )
        generic = miner.periodicities(task)
        fast = miner.periodicities(task, interleaved=True)
        assert {(f.key, f.periodicity.period, f.periodicity.offset) for f in generic} == {
            (f.key, f.periodicity.period, f.periodicity.offset) for f in fast
        }

    def test_with_feature(self, seasonal_data):
        miner = TemporalMiner(seasonal_data.database)
        report = miner.with_feature(
            ConstrainedTask(
                feature=TimeInterval(datetime(2025, 6, 1), datetime(2025, 9, 1)),
                thresholds=RuleThresholds(0.3, 0.6),
                max_rule_size=2,
            )
        )
        assert report.task_name == "constrained"
        assert len(report) >= 2

    def test_same_miner_runs_all_three_tasks(self, seasonal_data):
        miner = TemporalMiner(seasonal_data.database)
        thresholds = RuleThresholds(0.25, 0.6)
        vp = miner.valid_periods(
            ValidPeriodTask(
                granularity=Granularity.MONTH, thresholds=thresholds, max_rule_size=2
            )
        )
        p = miner.periodicities(
            PeriodicityTask(
                granularity=Granularity.MONTH,
                thresholds=thresholds,
                max_period=6,
                min_repetitions=2,
                max_rule_size=2,
            )
        )
        cf = miner.with_feature(
            ConstrainedTask(
                feature=TimeInterval(datetime(2025, 6, 1), datetime(2025, 9, 1)),
                thresholds=thresholds,
                max_rule_size=2,
            )
        )
        assert vp.task_name == "valid_periods"
        assert p.task_name == "periodicities"
        assert cf.task_name == "constrained"


class TestCountingSelection:
    def test_default_is_auto(self, seasonal_data):
        assert TemporalMiner(seasonal_data.database).counting == "auto"

    def test_set_counting_validates(self, seasonal_data):
        miner = TemporalMiner(seasonal_data.database)
        miner.set_counting("vertical")
        assert miner.counting == "vertical"
        miner.set_counting("auto")
        assert miner.counting == "auto"
        with pytest.raises(MiningParameterError, match="unknown counting backend"):
            miner.set_counting("btree")
        assert miner.counting == "auto"  # a failed set leaves it unchanged

    def test_constructor_validates(self, seasonal_data):
        with pytest.raises(MiningParameterError, match="unknown counting backend"):
            TemporalMiner(seasonal_data.database, counting="btree")
        assert TemporalMiner(seasonal_data.database, counting="hashtree").counting == "hashtree"

    @pytest.mark.parametrize("backend", ["dict", "hashtree", "vertical"])
    def test_all_tasks_agree_with_auto(self, seasonal_data, backend):
        """Backend choice never changes what any task discovers."""
        thresholds = RuleThresholds(0.25, 0.6)
        vp_task = ValidPeriodTask(
            granularity=Granularity.MONTH, thresholds=thresholds, max_rule_size=2
        )
        cf_task = ConstrainedTask(
            feature=TimeInterval(datetime(2025, 6, 1), datetime(2025, 9, 1)),
            thresholds=thresholds,
            max_rule_size=2,
        )
        reference = TemporalMiner(seasonal_data.database)
        pinned = TemporalMiner(seasonal_data.database, counting=backend)
        assert [r.key for r in pinned.valid_periods(vp_task)] == [
            r.key for r in reference.valid_periods(vp_task)
        ]
        assert [r.key for r in pinned.with_feature(cf_task)] == [
            r.key for r in reference.with_feature(cf_task)
        ]

    def test_interleaved_periodicities_respect_backend(self, periodic_data):
        task = PeriodicityTask(
            granularity=Granularity.DAY,
            thresholds=RuleThresholds(0.25, 0.6),
            max_period=8,
            min_repetitions=5,
            max_rule_size=2,
        )
        generic = TemporalMiner(periodic_data.database).periodicities(task)
        vertical = TemporalMiner(
            periodic_data.database, counting="vertical"
        ).periodicities(task, interleaved=True)
        assert {
            (f.key, f.periodicity.period, f.periodicity.offset) for f in generic
        } == {(f.key, f.periodicity.period, f.periodicity.offset) for f in vertical}

    def test_budgeted_vertical_run_is_sound(self, seasonal_data):
        """A budget stops the columnar path at a granule boundary: the
        interrupted pass is discarded and the report is a sound subset."""
        task = ValidPeriodTask(
            granularity=Granularity.MONTH,
            thresholds=RuleThresholds(0.15, 0.6),
            max_rule_size=3,
        )
        full = TemporalMiner(seasonal_data.database, counting="vertical").valid_periods(
            task, budget=RunBudget(max_candidates=10**9)
        )
        generated = full.diagnostics.candidates_generated
        # One candidate short: the run stops inside the final pass, which
        # is discarded wholesale; all earlier committed passes survive.
        budgeted = TemporalMiner(
            seasonal_data.database, counting="vertical"
        ).valid_periods(task, budget=RunBudget(max_candidates=generated - 1))
        assert budgeted.partial
        assert budgeted.diagnostics.stop_reason == "max_candidates"
        assert len(budgeted) > 0  # the partial is non-trivial...
        assert {r.key for r in budgeted} <= {r.key for r in full}  # ...and sound
