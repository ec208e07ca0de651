"""Differential harness: sharded counting must be bit-identical to serial.

Mining runs are serial; the one sharded path left is the ``executor=``
hook of :func:`per_unit_frequent_itemsets` and the temporal contexts'
count methods.  Every test counts the same seeded random Quest database
twice — once serially and once through a :class:`ShardedExecutor` — and
asserts the outputs match *exactly*: same itemsets, same per-unit
support arrays (``np.array_equal``, not approximate), and the same valid
periods and periodicities derived from them.  The matrix covers workers
1..4 and all four counting backends.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.core import TransactionDatabase
from repro.core.items import Itemset
from repro.datagen import QuestConfig, generate_baskets
from repro.mining.context import TemporalContext, per_unit_frequent_itemsets
from repro.mining.engine import TemporalMiner
from repro.mining.periodicities import discover_periodicities
from repro.mining.tasks import (
    ConstrainedTask,
    PeriodicityTask,
    RuleThresholds,
    ValidPeriodTask,
)
from repro.mining.valid_periods import discover_valid_periods
from repro.parallel import ShardedExecutor, plan_shards
from repro.temporal.granularity import Granularity
from repro.temporal.interval import TimeInterval

BACKENDS = ("dict", "hashtree", "vertical", "packed")
WORKER_COUNTS = (1, 2, 3, 4)
SEEDS = (11, 23)

_THRESHOLDS = RuleThresholds(min_support=0.18, min_confidence=0.5)


def quest_database(seed: int, n_transactions: int = 420) -> TransactionDatabase:
    """A seeded Quest database spread hourly over several weeks."""
    config = QuestConfig(
        n_transactions=n_transactions,
        avg_transaction_size=5.0,
        avg_pattern_size=3.0,
        n_items=40,
        n_patterns=12,
        seed=seed,
    )
    db = TransactionDatabase()
    start = datetime(2025, 3, 1)
    for index, basket in enumerate(generate_baskets(config)):
        if not basket:
            basket = (index % 40,)
        db.add(start + timedelta(hours=index), basket)
    return db


@pytest.fixture(scope="module", params=SEEDS)
def database(request) -> TransactionDatabase:
    return quest_database(request.param)


def _assert_counts_identical(serial, parallel) -> None:
    assert sorted(serial.counts) == sorted(parallel.counts)
    for itemset, row in serial.counts.items():
        assert np.array_equal(row, parallel.counts[itemset]), itemset


def _sharded_report(database, task, backend, executor):
    """Task 1 or 2 mined from per-unit counts the executor produced."""
    context = TemporalContext(database, task.granularity)
    if isinstance(task, ValidPeriodTask):
        min_units, discover = task.min_valid_units, discover_valid_periods
    else:
        min_units, discover = task.min_repetitions, discover_periodicities
    counts = per_unit_frequent_itemsets(
        context,
        task.thresholds.min_support,
        min_units=min_units,
        max_size=task.max_rule_size,
        counting=backend,
        executor=executor,
    )
    assert not executor.degraded
    return discover(database, task, context=context, counts=counts)


# ----------------------------------------------------------------------
# shard planning invariants
# ----------------------------------------------------------------------


def test_plan_shards_partitions_every_unit(database):
    context = TemporalContext(database, Granularity.DAY)
    for workers in WORKER_COUNTS:
        shards = plan_shards(context._bounds, workers)
        assert shards == plan_shards(context._bounds, workers)  # deterministic
        assert shards[0].unit_lo == 0
        assert shards[-1].unit_hi == context.n_units
        for left, right in zip(shards, shards[1:]):
            assert left.unit_hi == right.unit_lo
            assert left.pos_hi == right.pos_lo
        assert sum(s.n_transactions for s in shards) == len(database)


# ----------------------------------------------------------------------
# per-unit counting (the substrate of Tasks 1 and 2)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_per_unit_itemsets_and_supports_bit_identical(database, backend, workers):
    context = TemporalContext(database, Granularity.DAY)
    serial = per_unit_frequent_itemsets(context, 0.18, counting=backend)
    with ShardedExecutor(workers) as executor:
        parallel = per_unit_frequent_itemsets(
            context, 0.18, counting=backend, executor=executor
        )
        assert not executor.degraded
    _assert_counts_identical(serial, parallel)


@pytest.mark.parametrize("workers", (2, 4))
def test_count_items_matrix_matches_serial(database, workers):
    context = TemporalContext(database, Granularity.DAY)
    serial = context.count_items_per_unit()
    with ShardedExecutor(workers) as executor:
        parallel = context.count_items_per_unit(executor=executor)
    assert sorted(serial) == sorted(parallel)
    for item, row in serial.items():
        assert np.array_equal(row, parallel[item])


# ----------------------------------------------------------------------
# Tasks 1 and 2 over sharded counts
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_valid_periods_bit_identical(database, backend, workers):
    task = ValidPeriodTask(
        granularity=Granularity.DAY,
        thresholds=_THRESHOLDS,
        min_frequency=0.8,
        min_coverage=2,
    )
    serial = TemporalMiner(database, counting=backend).valid_periods(task)
    with ShardedExecutor(workers) as executor:
        parallel = _sharded_report(database, task, backend, executor)
    assert serial.results == parallel.results


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", (2, 4))
def test_periodicities_bit_identical(database, backend, workers):
    task = PeriodicityTask(
        granularity=Granularity.DAY,
        thresholds=_THRESHOLDS,
        max_period=7,
        min_repetitions=2,
        min_match=0.75,
    )
    serial = TemporalMiner(database, counting=backend).periodicities(task)
    with ShardedExecutor(workers) as executor:
        parallel = _sharded_report(database, task, backend, executor)
    assert serial.results == parallel.results


# ----------------------------------------------------------------------
# planned (AUTO) vs pinned execution
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_planned_equals_pinned_valid_periods(database, backend, workers):
    task = ValidPeriodTask(
        granularity=Granularity.DAY,
        thresholds=_THRESHOLDS,
        min_frequency=0.8,
        min_coverage=2,
    )
    planned = TemporalMiner(database).valid_periods(task)  # AUTO: packed
    pinned = TemporalMiner(database, counting=backend).valid_periods(task)
    with ShardedExecutor(workers) as executor:
        sharded = _sharded_report(database, task, backend, executor)
    assert planned.results == pinned.results == sharded.results
    assert planned.plan is not None and not planned.plan["backend_pinned"]
    assert pinned.plan is not None and pinned.plan["backend_pinned"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_planned_equals_pinned_periodicities(database, backend):
    task = PeriodicityTask(
        granularity=Granularity.DAY,
        thresholds=_THRESHOLDS,
        max_period=7,
        min_repetitions=2,
        min_match=0.75,
    )
    planned = TemporalMiner(database).periodicities(task)
    pinned = TemporalMiner(database, counting=backend).periodicities(task)
    assert planned.results == pinned.results


@pytest.mark.parametrize("backend", BACKENDS)
def test_planned_equals_pinned_constrained(database, backend):
    start, end = database.time_span()
    task = ConstrainedTask(
        feature=TimeInterval(start, start + (end - start) / 2),
        thresholds=RuleThresholds(min_support=0.1, min_confidence=0.4),
    )
    planned = TemporalMiner(database).with_feature(task)
    pinned = TemporalMiner(database, counting=backend).with_feature(task)
    assert planned.results == pinned.results


# ----------------------------------------------------------------------
# executor reuse across granularities and databases
# ----------------------------------------------------------------------


def test_executor_reused_across_granularities(database):
    task_day = ValidPeriodTask(granularity=Granularity.DAY, thresholds=_THRESHOLDS)
    task_week = ValidPeriodTask(granularity=Granularity.WEEK, thresholds=_THRESHOLDS)
    with ShardedExecutor(2) as executor:
        day = _sharded_report(database, task_day, "auto", executor)
        week = _sharded_report(database, task_week, "auto", executor)
    assert day.results == TemporalMiner(database).valid_periods(task_day).results
    assert week.results == TemporalMiner(database).valid_periods(task_week).results


def test_workers_one_is_a_noop_executor(database):
    with ShardedExecutor(1) as executor:
        context = TemporalContext(database, Granularity.DAY)
        assert executor.count_items(context.encoded, context._bounds) is None
        assert not executor.effective()


def test_itemset_rows_are_int64(database):
    context = TemporalContext(database, Granularity.DAY)
    with ShardedExecutor(2) as executor:
        counted = context.count_candidates_per_unit(
            [Itemset((0, 1))], counting="dict", executor=executor
        )
    (row,) = counted.values()
    assert row.dtype == np.int64
