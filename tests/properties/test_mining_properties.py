"""Property-based tests on the mining algorithms themselves."""

import random
from datetime import datetime, timedelta

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.apriori import apriori, brute_force_frequent_itemsets
from repro.core.transactions import TransactionDatabase
from repro.mining.periodicities import cycles_of_sequence, prune_submultiple_cycles
from repro.mining.valid_periods import maximal_valid_windows


@st.composite
def small_databases(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    db = TransactionDatabase()
    base = datetime(2026, 1, 1)
    for i in range(n):
        basket = {rng.randrange(8) for _ in range(rng.randrange(1, 5))}
        db.add(base + timedelta(hours=i), basket)
    return db


@given(small_databases(), st.sampled_from([0.1, 0.25, 0.5, 0.8]))
@settings(max_examples=40, deadline=None)
def test_apriori_equals_brute_force(db, min_support):
    assert (
        apriori(db, min_support).as_dict()
        == brute_force_frequent_itemsets(db, min_support).as_dict()
    )


@given(small_databases(), st.sampled_from([0.2, 0.5]))
@settings(max_examples=25, deadline=None)
def test_support_monotone_in_threshold(db, min_support):
    loose = apriori(db, min_support)
    tight = apriori(db, min(min_support * 2, 1.0))
    assert set(tight) <= set(loose)


flag_sequences = st.lists(st.booleans(), min_size=1, max_size=25)


@given(
    flag_sequences,
    st.sampled_from([0.5, 0.7, 0.9, 1.0]),
    st.integers(min_value=1, max_value=6),
)
def test_windows_satisfy_their_own_thresholds(flags, min_frequency, min_coverage):
    for start, end, n_valid in maximal_valid_windows(flags, min_frequency, min_coverage):
        length = end - start + 1
        assert flags[start] and flags[end]
        assert length >= min_coverage
        assert n_valid == sum(flags[start : end + 1])
        assert n_valid / length >= min_frequency - 1e-9


@given(
    flag_sequences,
    st.sampled_from([0.5, 0.8, 1.0]),
    st.integers(min_value=1, max_value=4),
)
def test_windows_are_mutually_incomparable(flags, min_frequency, min_coverage):
    windows = maximal_valid_windows(flags, min_frequency, min_coverage)
    for i, a in enumerate(windows):
        for b in windows[i + 1 :]:
            assert not (a[0] <= b[0] and b[1] <= a[1])
            assert not (b[0] <= a[0] and a[1] <= b[1])


@given(
    flag_sequences,
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=50),
)
def test_cycles_hold_on_their_members(flags, max_period, min_repetitions, first_unit):
    valid = np.array(flags, dtype=bool)
    for (period, offset), n_members, n_valid in cycles_of_sequence(
        valid, first_unit, max_period, min_repetitions, 1.0
    ):
        member_offsets = [
            i for i in range(len(flags)) if (first_unit + i) % period == offset
        ]
        assert len(member_offsets) == n_members
        assert n_members >= min_repetitions
        assert n_valid == n_members
        assert all(flags[i] for i in member_offsets)


@given(flag_sequences, st.integers(min_value=0, max_value=20))
def test_cycle_completeness(flags, first_unit):
    """Every true cycle (checked directly) is reported."""
    valid = np.array(flags, dtype=bool)
    max_period, min_repetitions = 6, 2
    reported = {
        cycle
        for cycle, _, _ in cycles_of_sequence(
            valid, first_unit, max_period, min_repetitions, 1.0
        )
    }
    for period in range(1, max_period + 1):
        for offset in range(period):
            members = [
                i for i in range(len(flags)) if (first_unit + i) % period == offset
            ]
            if len(members) >= min_repetitions and all(flags[i] for i in members):
                assert (period, offset) in reported


@given(
    st.lists(
        st.tuples(st.integers(1, 12), st.integers(0, 11)).filter(lambda t: t[1] < t[0]),
        max_size=10,
    )
)
def test_submultiple_pruning_keeps_generators(cycles):
    entries = [((p, o), 5, 5) for p, o in set(cycles)]
    kept = prune_submultiple_cycles(entries)
    kept_cycles = [c for c, _, _ in kept]
    # 1. no kept cycle is a submultiple of another kept cycle
    for i, (p, o) in enumerate(kept_cycles):
        for j, (q, r) in enumerate(kept_cycles):
            if i != j and p % q == 0 and o % q == r:
                assert (p, o) == (q, r)
    # 2. every pruned cycle is dominated by some kept cycle
    for (p, o), _, _ in entries:
        assert any(p % q == 0 and o % q == r for q, r in kept_cycles)


@given(small_databases(), st.sampled_from([0.1, 0.3, 0.6]))
@settings(max_examples=25, deadline=None)
def test_all_engines_agree(db, min_support):
    """Apriori, FP-growth and Partition return identical results."""
    from repro.core.fpgrowth import fpgrowth
    from repro.core.partition import partition

    reference = apriori(db, min_support).as_dict()
    assert fpgrowth(db, min_support).as_dict() == reference
    assert partition(db, min_support, n_partitions=3).as_dict() == reference


@given(small_databases(), st.integers(min_value=1, max_value=4))
@settings(max_examples=20, deadline=None)
def test_incremental_equals_batch(db, n_batches):
    """Streaming a database through the delta-maintained miner reproduces
    the from-scratch sequential result."""
    from repro.baselines import sequential_valid_periods
    from repro.mining.engine import TemporalMiner
    from repro.mining.tasks import RuleThresholds, ValidPeriodTask
    from repro.temporal import Granularity

    task = ValidPeriodTask(
        granularity=Granularity.DAY,
        thresholds=RuleThresholds(0.4, 0.6),
        min_coverage=1,
        max_rule_size=3,
    )
    rows = [(t.timestamp, t.items.items) for t in db]
    size = -(-len(rows) // n_batches)
    seeded = TransactionDatabase(catalog=db.catalog)
    for timestamp, items in rows[:size]:
        seeded.add(timestamp, items)
    miner = TemporalMiner(seeded, incremental="on")
    report = miner.valid_periods(task)
    for start in range(size, len(rows), size):
        miner.apply_append(rows[start : start + size])
        report = miner.valid_periods(task)
    incremental = {
        (r.key, tuple((p.first_unit, p.last_unit) for p in r.periods))
        for r in report
    }
    reference = {
        (r.key, tuple((p.first_unit, p.last_unit) for p in r.periods))
        for r in sequential_valid_periods(db, task)
    }
    assert incremental == reference
