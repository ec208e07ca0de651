"""Differential harness: incremental mining == cold full re-mine, always.

Every test streams a random append schedule into a live miner — batch
sizes from 1 to 512, timestamps both beyond the existing span (the CSR
tail fast path) and shuffled across/before it (the merge path) — and
after *every* batch mines with delta maintenance on, comparing
bit-for-bit against a cold miner built from scratch over the identical
database: same results, same per-unit support arrays, same run
diagnostics (granule coverage included).  The matrix covers all four
counting backends and, through the contexts' ``executor=`` hook,
sharded counting over 2..4 workers (``workers=1`` mines through the
miner itself), mirroring the parallel differential suite: any refactor
of the delta path that changes output, however subtly, fails here
first.
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.columnar.encoded import EncodedDatabase
from repro.core import TransactionDatabase
from repro.datagen import QuestConfig, generate_baskets
from repro.incremental import IncrementalContext, append_encoded
from repro.mining.context import per_unit_frequent_itemsets
from repro.mining.engine import TemporalMiner
from repro.mining.periodicities import discover_periodicities
from repro.mining.tasks import PeriodicityTask, RuleThresholds, ValidPeriodTask
from repro.mining.valid_periods import discover_valid_periods
from repro.parallel import ShardedExecutor
from repro.temporal.granularity import Granularity, unit_index

BACKENDS = ("dict", "hashtree", "vertical", "packed")
WORKER_COUNTS = (1, 2, 3, 4)
SCHEDULES = ("in_order", "out_of_order")

_THRESHOLDS = RuleThresholds(min_support=0.18, min_confidence=0.5)

_PERIODS_TASK = ValidPeriodTask(
    granularity=Granularity.DAY,
    thresholds=_THRESHOLDS,
    min_frequency=0.8,
    min_coverage=2,
)
_PERIODICITY_TASK = PeriodicityTask(
    granularity=Granularity.DAY,
    thresholds=_THRESHOLDS,
    max_period=7,
    min_repetitions=2,
    min_match=0.75,
)

_START = datetime(2025, 3, 1)


def base_transactions(seed: int, n_transactions: int = 240):
    """The seed load: hourly Quest transactions over ~10 days."""
    config = QuestConfig(
        n_transactions=n_transactions,
        avg_transaction_size=5.0,
        avg_pattern_size=3.0,
        n_items=40,
        n_patterns=12,
        seed=seed,
    )
    rows = []
    for index, basket in enumerate(generate_baskets(config)):
        if not basket:
            basket = (index % 40,)
        rows.append((_START + timedelta(hours=index), basket))
    return rows


def append_schedule(seed: int, kind: str, n_base: int, sizes=(1, 37, 256)):
    """Batches to stream in: list of lists of ``(timestamp, items)``.

    ``in_order`` batches land strictly after everything already present
    (the CSR tail fast path); ``out_of_order`` batches are shuffled
    across the existing span and *before* its start (the stable-merge
    path plus a leftward span widening).
    """
    rng = random.Random(seed * 1009 + len(kind))
    batches = []
    cursor = n_base
    for size in sizes:
        batch = []
        for _ in range(size):
            items = tuple(sorted(rng.sample(range(40), rng.randint(1, 6))))
            if kind == "in_order":
                stamp = _START + timedelta(hours=cursor)
                cursor += 1
            else:
                stamp = _START + timedelta(hours=rng.randint(-96, n_base + 96))
            batch.append((stamp, items))
        if kind == "out_of_order":
            rng.shuffle(batch)
        batches.append(batch)
    return batches


def build_database(rows) -> TransactionDatabase:
    db = TransactionDatabase()
    for timestamp, items in rows:
        db.add(timestamp, items)
    return db


def _mine(miner, task, executor=None):
    """One Task 1/2 run of ``miner``; sharded counting with an executor.

    The sharded form counts the miner's own (possibly incremental)
    context through the ``executor=`` hook, so a warm context splices
    its delta against counts the executor produced.
    """
    periods = isinstance(task, ValidPeriodTask)
    if executor is None:
        return miner.valid_periods(task) if periods else miner.periodicities(task)
    context = miner.context(task.granularity)
    counts = per_unit_frequent_itemsets(
        context,
        task.thresholds.min_support,
        min_units=task.min_valid_units if periods else task.min_repetitions,
        max_size=task.max_rule_size,
        counting=miner.counting,
        executor=executor,
    )
    discover = discover_valid_periods if periods else discover_periodicities
    return discover(miner.database, task, context=context, counts=counts)


def _assert_reports_identical(warm, cold) -> None:
    assert warm.results == cold.results
    for field in (
        "stop_reason",
        "passes_completed",
        "granules_covered",
        "candidates_generated",
        "rules_emitted",
    ):
        assert getattr(warm.diagnostics, field) == getattr(
            cold.diagnostics, field
        ), field


# ----------------------------------------------------------------------
# CSR append == full re-encode (array-level, every schedule shape)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", SCHEDULES)
@pytest.mark.parametrize("seed", (3, 17))
def test_append_encoded_equals_reencode(seed, kind):
    rows = base_transactions(seed)
    db = build_database(rows)
    encoded = EncodedDatabase.from_database(db)
    applied = list(rows)
    for batch in append_schedule(seed, kind, len(rows), sizes=(1, 64, 512)):
        triples = []
        for timestamp, items in batch:
            transaction = db.add(timestamp, items)
            applied.append((timestamp, items))
            triples.append((transaction.tid, transaction.timestamp, transaction.items.items))
        result = append_encoded(encoded, triples)
        encoded = result.encoded
        reencoded = EncodedDatabase.from_database(db)
        assert np.array_equal(encoded.item_ids, reencoded.item_ids)
        assert np.array_equal(encoded.offsets, reencoded.offsets)
        assert np.array_equal(encoded.tids, reencoded.tids)
        assert encoded.timestamps == reencoded.timestamps
        assert np.array_equal(encoded.stamps, reencoded.stamps)
        assert encoded.n_items == reencoded.n_items
        for granularity in (Granularity.DAY, Granularity.MONTH):
            assert result.touched_units(granularity) == {
                unit_index(timestamp, granularity) for timestamp, _ in batch
            }


def test_append_encoded_tail_fast_path_flag():
    rows = base_transactions(5, n_transactions=48)
    db = build_database(rows)
    encoded = EncodedDatabase.from_database(db)
    tail = db.add(_START + timedelta(hours=100), (1, 2))
    result = append_encoded(
        encoded, [(tail.tid, tail.timestamp, tail.items.items)]
    )
    assert result.in_order and result.appended == 1
    early = db.add(_START - timedelta(hours=5), (3,))
    result2 = append_encoded(
        result.encoded, [(early.tid, early.timestamp, early.items.items)]
    )
    assert not result2.in_order and result2.appended == 1


# ----------------------------------------------------------------------
# the full matrix: backends x workers x schedules, checked per batch
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", SCHEDULES)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_incremental_valid_periods_bit_identical(backend, workers, kind):
    rows = base_transactions(11)
    applied = list(rows)
    warm_miner = TemporalMiner(
        build_database(rows), counting=backend, incremental="on"
    )
    with ShardedExecutor(workers) as pool:
        executor = pool if workers > 1 else None
        _mine(warm_miner, _PERIODS_TASK, executor)  # prime the count cache
        for batch in append_schedule(11, kind, len(rows)):
            warm_miner.apply_append(batch)
            applied.extend(batch)
            warm = _mine(warm_miner, _PERIODS_TASK, executor)
            cold_miner = TemporalMiner(
                build_database(applied), counting=backend, incremental="off"
            )
            cold = _mine(cold_miner, _PERIODS_TASK, executor)
            _assert_reports_identical(warm, cold)


@pytest.mark.parametrize("kind", SCHEDULES)
@pytest.mark.parametrize("workers", (1, 3))
@pytest.mark.parametrize("backend", BACKENDS)
def test_incremental_periodicities_bit_identical(backend, workers, kind):
    rows = base_transactions(23)
    applied = list(rows)
    warm_miner = TemporalMiner(
        build_database(rows), counting=backend, incremental="on"
    )
    with ShardedExecutor(workers) as pool:
        executor = pool if workers > 1 else None
        _mine(warm_miner, _PERIODICITY_TASK, executor)
        for batch in append_schedule(23, kind, len(rows), sizes=(2, 111)):
            warm_miner.apply_append(batch)
            applied.extend(batch)
            warm = _mine(warm_miner, _PERIODICITY_TASK, executor)
            cold_miner = TemporalMiner(
                build_database(applied), counting=backend, incremental="off"
            )
            cold = _mine(cold_miner, _PERIODICITY_TASK, executor)
            _assert_reports_identical(warm, cold)


@pytest.mark.parametrize("kind", SCHEDULES)
def test_auto_mode_matches_off_after_every_batch(kind):
    """AUTO may pick delta or full per batch — results never differ."""
    rows = base_transactions(31)
    applied = list(rows)
    auto_miner = TemporalMiner(build_database(rows), incremental="auto")
    auto_miner.valid_periods(_PERIODS_TASK)
    for batch in append_schedule(31, kind, len(rows), sizes=(1, 5, 199)):
        auto_miner.apply_append(batch)
        applied.extend(batch)
        decision = auto_miner.refresh_for(Granularity.DAY)
        assert decision is not None
        assert decision.strategy in ("delta", "full")
        warm = auto_miner.valid_periods(_PERIODS_TASK)
        cold_miner = TemporalMiner(build_database(applied), incremental="off")
        cold = cold_miner.valid_periods(_PERIODS_TASK)
        _assert_reports_identical(warm, cold)


def test_single_transaction_batches_random_walk():
    """A long run of size-1 appends (the worst delta-maintenance case)."""
    rng = random.Random(97)
    rows = base_transactions(41, n_transactions=120)
    applied = list(rows)
    warm_miner = TemporalMiner(build_database(rows), incremental="on")
    warm_miner.valid_periods(_PERIODS_TASK)
    for step in range(6):
        stamp = _START + timedelta(hours=rng.randint(-48, 200))
        items = tuple(sorted(rng.sample(range(40), rng.randint(1, 5))))
        batch = [(stamp, items)]
        warm_miner.apply_append(batch)
        applied.extend(batch)
        warm = warm_miner.valid_periods(_PERIODS_TASK)
        cold_miner = TemporalMiner(build_database(applied), incremental="off")
        cold = cold_miner.valid_periods(_PERIODS_TASK)
        _assert_reports_identical(warm, cold)


def test_incremental_context_survives_appends_with_state():
    """The warm miner really is reusing state, not silently recounting."""
    rows = base_transactions(53, n_transactions=120)
    miner = TemporalMiner(build_database(rows), incremental="on")
    miner.valid_periods(_PERIODS_TASK)
    context = miner.context(Granularity.DAY)
    assert isinstance(context, IncrementalContext)
    assert context.has_state()
    assert context.dirty_unit_count() == 0
    miner.apply_append([(_START + timedelta(hours=6), (1, 2, 3))])
    rebased = miner.context(Granularity.DAY)
    assert isinstance(rebased, IncrementalContext)
    assert rebased.has_state()  # cache survived the append
    assert rebased.dirty_unit_count() == 1
