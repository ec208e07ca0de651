"""Streaming appends through ``TemporalMiner.apply_append``.

The delta-maintained miner (``incremental="on"``) must report, after
every batch, exactly what the independent naive references in
:mod:`repro.baselines` compute from scratch over the accumulated data.
"""

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.baselines import sequential_periodicities, sequential_valid_periods
from repro.core.transactions import TransactionDatabase
from repro.errors import TransactionError
from repro.mining import (
    PeriodicityTask,
    RuleThresholds,
    TemporalMiner,
    ValidPeriodTask,
)
from repro.temporal import Granularity


TASK = ValidPeriodTask(
    granularity=Granularity.DAY,
    thresholds=RuleThresholds(0.4, 0.7),
    min_coverage=2,
    max_rule_size=2,
)

PERIODICITY_TASK = PeriodicityTask(
    granularity=Granularity.DAY,
    thresholds=RuleThresholds(0.35, 0.7),
    max_period=8,
    min_repetitions=4,
    max_rule_size=2,
)


def summarize(report):
    return {
        (record.key, tuple((p.first_unit, p.last_unit) for p in record.periods))
        for record in report
    }


def cycles(report):
    return {
        (f.key, f.periodicity.period, f.periodicity.offset,
         f.n_member_units, f.n_valid_units)
        for f in report
        if hasattr(f.periodicity, "period")
    }


def rows_of(transactions):
    return [(t.timestamp, t.items.items) for t in transactions]


def streaming_miner(seed_rows, mine, catalog=None):
    """A delta-maintaining miner seeded with ``seed_rows`` and mined once,
    so every later ``apply_append`` has per-unit state to splice into."""
    database = TransactionDatabase(catalog=catalog)
    for timestamp, items in seed_rows:
        database.add(timestamp, items)
    miner = TemporalMiner(database, incremental="on")
    mine(miner)
    return miner


def stream(window, n_batches, mine, order=None):
    """Stream ``window`` in ``n_batches`` appends, mining after each."""
    rows = rows_of(window)
    if order is not None:
        rows = [rows[index] for index in order]
    size = -(-len(rows) // n_batches)
    miner = streaming_miner(rows[:size], mine, catalog=window.catalog)
    for start in range(size, len(rows), size):
        miner.apply_append(rows[start : start + size])
        mine(miner)  # interleaved mining must not corrupt the delta state
    return miner


def two_item_days(base, days, per_day):
    return [
        (base + timedelta(days=day), ["a", "b"])
        for day in days
        for _ in range(per_day)
    ]


class TestValidation:
    def test_accepts_gap_tolerance(self, periodic_data):
        db = periodic_data.database
        start, _ = db.time_span()
        window = db.between(start, start + timedelta(days=30))
        task = ValidPeriodTask(
            granularity=Granularity.DAY,
            thresholds=RuleThresholds(0.4, 0.7),
            min_frequency=0.8,
            min_coverage=2,
            max_rule_size=2,
        )
        miner = stream(window, 3, lambda m: m.valid_periods(task))
        reference = sequential_valid_periods(window, task)
        assert summarize(miner.valid_periods(task)) == summarize(reference)

    def test_accepts_out_of_order(self, periodic_data):
        db = periodic_data.database
        start, _ = db.time_span()
        window = db.between(start, start + timedelta(days=30))
        # Newest third first, then the oldest, then the middle: the last
        # two batches backfill before / inside the existing span.
        third = len(window) // 3
        order = (
            list(range(2 * third, len(window)))
            + list(range(third))
            + list(range(third, 2 * third))
        )
        miner = stream(window, 3, lambda m: m.valid_periods(TASK), order=order)
        reference = sequential_valid_periods(window, TASK)
        assert summarize(miner.valid_periods(TASK)) == summarize(reference)

    def test_rejects_bad_item(self):
        base = datetime(2026, 1, 1)
        miner = streaming_miner(
            two_item_days(base, range(2), 3), lambda m: m.valid_periods(TASK)
        )
        with pytest.raises(TransactionError):
            miner.apply_append([(base + timedelta(days=2), [2.5])])


class TestEquivalenceWithBatch:
    def test_matches_from_scratch(self, periodic_data):
        db = periodic_data.database
        # Keep it quick: first 40 days only.
        start, _ = db.time_span()
        window = db.between(start, start + timedelta(days=40))
        miner = stream(window, 8, lambda m: m.valid_periods(TASK))
        incremental = miner.valid_periods(TASK)
        reference = sequential_valid_periods(window, TASK)
        assert summarize(incremental) == summarize(reference)
        assert incremental.n_transactions == len(window)

    def test_report_is_idempotent(self, periodic_data):
        db = periodic_data.database
        start, _ = db.time_span()
        window = db.between(start, start + timedelta(days=20))
        miner = stream(window, 2, lambda m: m.valid_periods(TASK))
        first = miner.valid_periods(TASK)
        second = miner.valid_periods(TASK)
        assert summarize(first) == summarize(second)

    def test_growth_in_batches_matches_one_shot(self, periodic_data):
        db = periodic_data.database
        start, _ = db.time_span()
        window = db.between(start, start + timedelta(days=30))
        batched = stream(window, 3, lambda m: m.valid_periods(TASK))
        reference = sequential_valid_periods(window, TASK)
        assert summarize(batched.valid_periods(TASK)) == summarize(reference)


class TestIncrementalBehaviour:
    def test_new_unit_extends_runs(self):
        base = datetime(2026, 4, 6)
        miner = streaming_miner(
            two_item_days(base, range(2), 5), lambda m: m.valid_periods(TASK)
        )
        first = miner.valid_periods(TASK)
        assert len(first) == 2  # a=>b and b=>a over a 2-day run
        # A third day extends the same maximal period.
        miner.apply_append(two_item_days(base, [2], 5))
        second = miner.valid_periods(TASK)
        spans = {periods for _k, periods in summarize(second)}
        assert all(last - first_ == 2 for ((first_, last),) in spans)

    def test_only_dirty_units_recomputed(self):
        base = datetime(2026, 4, 6)
        miner = streaming_miner(
            two_item_days(base, range(5), 4), lambda m: m.valid_periods(TASK)
        )
        # Appending to a new day marks exactly one unit dirty.
        miner.apply_append(two_item_days(base, [5], 1))
        decision = miner.refresh_for(Granularity.DAY)
        assert (decision.strategy, decision.dirty_units) == ("delta", 1)
        miner.valid_periods(TASK)
        assert miner.refresh_for(Granularity.DAY).dirty_units == 0

    def test_empty_report(self):
        base = datetime(2026, 4, 6)
        # Every day a different pair: no rule holds two days running.
        rows = [
            (base + timedelta(days=day), [f"x{day}", f"y{day}"]) for day in range(4)
        ]
        miner = streaming_miner(rows[:2], lambda m: m.valid_periods(TASK))
        assert len(miner.valid_periods(TASK)) == 0
        assert miner.apply_append([]) == 0
        miner.apply_append(rows[2:])
        assert len(miner.valid_periods(TASK)) == 0

    def test_counts_properties(self):
        miner = streaming_miner(
            [(datetime(2026, 4, 6), ["a", "b"])], lambda m: m.valid_periods(TASK)
        )
        assert miner.apply_append([(datetime(2026, 4, 9), ["a", "b"])]) == 1
        report = miner.valid_periods(TASK)
        assert report.n_transactions == 2
        assert report.n_units == 4  # spans 4 days including empty ones


class TestIncrementalPeriodicities:
    def test_matches_sequential(self, periodic_data):
        db = periodic_data.database
        start, _ = db.time_span()
        window = db.between(start, start + timedelta(days=35))
        miner = stream(window, 7, lambda m: m.periodicities(PERIODICITY_TASK))
        incremental = miner.periodicities(PERIODICITY_TASK)
        reference = sequential_periodicities(window, PERIODICITY_TASK)
        assert cycles(incremental) == cycles(reference)

    def test_grows_with_stream(self, periodic_data):
        db = periodic_data.database
        start, _ = db.time_span()
        # 28 days give a weekly cycle its four required repetitions.
        first_half = db.between(start, start + timedelta(days=28))
        miner = streaming_miner(
            rows_of(first_half),
            lambda m: m.periodicities(PERIODICITY_TASK),
            catalog=db.catalog,
        )
        early = miner.periodicities(PERIODICITY_TASK)
        second_half = db.between(
            start + timedelta(days=28), start + timedelta(days=56)
        )
        miner.apply_append(rows_of(second_half))
        late = miner.periodicities(PERIODICITY_TASK)
        assert late.n_units > early.n_units
        assert len(late) >= len(early) > 0


class TestAtomicAppend:
    @pytest.mark.parametrize("mode", ["off", "on", "auto"])
    def test_bad_batch_changes_nothing_in_any_mode(self, mode):
        """A batch with one bad row is rejected whole, before any state moves."""
        base = datetime(2026, 4, 6)
        database = TransactionDatabase()
        for timestamp, items in two_item_days(base, range(3), 4):
            database.add(timestamp, items)
        miner = TemporalMiner(database, incremental=mode)
        before = miner.valid_periods(TASK)
        n_before = len(miner.database)
        catalog_before = len(database.catalog)
        with pytest.raises(TransactionError):
            miner.apply_append(
                [(base + timedelta(days=3), ["a", "fresh"]), (base + timedelta(days=3), [])]
            )
        assert len(miner.database) == n_before
        assert len(database.catalog) == catalog_before
        after = miner.valid_periods(TASK)
        assert after.n_transactions == before.n_transactions == n_before
        assert after.results == before.results

    @pytest.mark.parametrize("mode", ["off", "on"])
    def test_fold_keeps_the_callers_database_in_step(self, mode):
        base = datetime(2026, 4, 6)
        database = TransactionDatabase()
        for timestamp, items in two_item_days(base, range(2), 3):
            database.add(timestamp, items)
        miner = TemporalMiner(database, incremental=mode)
        miner.valid_periods(TASK)
        batch = [(base + timedelta(days=2), ["b", "c"]), (base - timedelta(days=1), [0])]
        assert miner.apply_append(batch) == 2
        assert miner.database.tids.tolist() == [7, 0, 1, 2, 3, 4, 5, 6]
        reencoded = database.encoded()
        for column in ("item_ids", "offsets", "tids", "stamps"):
            assert np.array_equal(getattr(miner.database, column), getattr(reencoded, column))
