"""Property-based tests for incremental delta maintenance.

The invariants the delta path must hold for *any* database and any
append schedule, pinned with hypothesis-generated inputs:

* the dirty-unit set after an append is exactly the set of time units
  the appended transactions landed in (span-widening columns the append
  left empty stay clean — a zero count is already exact);
* per-unit counts served by the splice path equal counts computed from
  scratch on the post-append database, array for array;
* an empty batch is a perfect no-op;
* ``AUTO`` mode never changes mining results relative to ``OFF``.
"""

import random
from datetime import datetime, timedelta

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.items import Itemset
from repro.core.transactions import TransactionDatabase
from repro.incremental import IncrementalContext
from repro.mining.context import TemporalContext
from repro.mining.engine import TemporalMiner
from repro.mining.tasks import RuleThresholds, ValidPeriodTask
from repro.temporal.granularity import Granularity, unit_index

_BASE = datetime(2026, 2, 1)
_TASK = ValidPeriodTask(
    granularity=Granularity.DAY,
    thresholds=RuleThresholds(min_support=0.3, min_confidence=0.5),
    min_frequency=0.7,
    min_coverage=1,
)


@st.composite
def seeded_workload(draw):
    """A small hourly database plus one random append batch."""
    n = draw(st.integers(min_value=4, max_value=60))
    batch_size = draw(st.integers(min_value=1, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    db = TransactionDatabase()
    for i in range(n):
        basket = {rng.randrange(8) for _ in range(rng.randrange(1, 5))}
        db.add(_BASE + timedelta(hours=i), basket)
    batch = []
    for _ in range(batch_size):
        stamp = _BASE + timedelta(hours=rng.randint(-96, n + 96))
        basket = tuple(sorted({rng.randrange(8) for _ in range(rng.randrange(1, 5))}))
        batch.append((stamp, basket))
    return db, batch


def _primed_miner(db) -> TemporalMiner:
    miner = TemporalMiner(db, incremental="on")
    context = miner.context(Granularity.DAY)
    context.count_items_per_unit()  # commit the pass-1 cache
    return miner


@given(seeded_workload())
@settings(max_examples=40, deadline=None)
def test_dirty_units_exactly_cover_touched_units(workload):
    db, batch = workload
    miner = _primed_miner(db)
    miner.apply_append(batch)
    context = miner.context(Granularity.DAY)
    assert isinstance(context, IncrementalContext)
    touched = {unit_index(stamp, Granularity.DAY) for stamp, _ in batch}
    assert context.dirty_units() == frozenset(touched)
    assert context.dirty_unit_count() == len(touched)


@given(seeded_workload(), seeded_workload())
@settings(max_examples=15, deadline=None)
def test_dirty_units_accumulate_as_a_union(workload, other):
    db, batch = workload
    _, batch2 = other
    miner = _primed_miner(db)
    miner.apply_append(batch)
    miner.apply_append(batch2)
    context = miner.context(Granularity.DAY)
    touched = {unit_index(stamp, Granularity.DAY) for stamp, _ in batch}
    touched |= {unit_index(stamp, Granularity.DAY) for stamp, _ in batch2}
    assert context.dirty_units() == frozenset(touched)


@given(seeded_workload())
@settings(max_examples=40, deadline=None)
def test_spliced_counts_equal_counts_from_scratch(workload):
    db, batch = workload
    miner = _primed_miner(db)
    warm = miner.context(Granularity.DAY)
    pairs = [
        Itemset(pair)
        for pair in ((0, 1), (1, 2), (2, 3), (0, 3))
    ]
    warm.count_candidates_per_unit(pairs)  # prime candidate rows pre-append
    miner.apply_append(batch)
    warm = miner.context(Granularity.DAY)
    scratch = TemporalContext(miner.database, Granularity.DAY)
    warm_items = warm.count_items_per_unit()
    scratch_items = scratch.count_items_per_unit()
    assert sorted(warm_items) == sorted(scratch_items)
    for item, row in scratch_items.items():
        assert np.array_equal(warm_items[item], row), item
    warm_pairs = warm.count_candidates_per_unit(pairs)
    scratch_pairs = scratch.count_candidates_per_unit(pairs)
    for candidate in pairs:
        assert np.array_equal(warm_pairs[candidate], scratch_pairs[candidate])


@given(seeded_workload())
@settings(max_examples=20, deadline=None)
def test_empty_batch_is_a_noop(workload):
    db, _ = workload
    miner = _primed_miner(db)
    before = miner.context(Granularity.DAY)
    n_before = len(db)
    assert miner.apply_append([]) == 0
    assert len(db) == n_before
    assert miner.context(Granularity.DAY) is before  # not even rebased
    assert before.dirty_unit_count() == 0


@given(seeded_workload())
@settings(max_examples=20, deadline=None)
def test_auto_never_changes_results_vs_off(workload):
    db, batch = workload
    rows = [(t.timestamp, tuple(t.items.items)) for t in db]

    def rebuild():
        fresh = TransactionDatabase()
        for stamp, items in rows:
            fresh.add(stamp, items)
        return fresh

    reports = {}
    for mode in ("auto", "off"):
        miner = TemporalMiner(rebuild(), incremental=mode)
        miner.valid_periods(_TASK)
        miner.apply_append(batch)
        reports[mode] = miner.valid_periods(_TASK)
    assert reports["auto"].results == reports["off"].results


@given(seeded_workload())
@settings(max_examples=20, deadline=None)
def test_rebased_context_reports_consistent_fraction(workload):
    db, batch = workload
    miner = _primed_miner(db)
    miner.apply_append(batch)
    context = miner.context(Granularity.DAY)
    fraction = context.dirty_fraction()
    assert 0.0 <= fraction <= 1.0
    assert fraction == context.dirty_unit_count() / context.n_units
