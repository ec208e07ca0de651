"""Property wall for the array-native level pipeline.

Candidate generation, survivor selection, rule evaluation, maximal runs,
cycle detection and unit-mask restriction all moved from per-object
Python onto id matrices and ``rules × units`` matrices.  Each kernel is
pinned here against a deliberately naive reference written in this
file — the per-itemset / per-series formulas the kernels replaced — on
the edges where an array formulation can go wrong: empty and one-row
levels, one prefix group, ids above 2**16, row keys that overflow int64,
empty units, antecedents counted zero or never retained, runs touching
either end of the window, windows shorter than the longest period, and
pre-epoch timestamps.
"""

from datetime import datetime, timedelta
from itertools import combinations

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.items import Itemset
from repro.core.levels import RowIndex, as_itemsets, join, next_level, row_keys
from repro.core.transactions import TransactionDatabase
from repro.mining.constrained import feature_predicate, restrict_database
from repro.mining.context import PerUnitCounts, TemporalContext, per_unit_frequent_itemsets
from repro.mining.periodicities import (
    cycles_of_sequence,
    discover_periodicities,
    prune_submultiple_cycles,
)
from repro.mining.rulespace import candidate_rules, enumerate_rule_splits, maximal_runs
from repro.mining.tasks import PeriodicityTask, RuleThresholds
from repro.mining.valid_periods import maximal_valid_windows, periods_for_series
from repro.temporal.calendar_algebra import CalendarPattern
from repro.temporal.granularity import Granularity
from repro.temporal.interval import TimeInterval
from repro.temporal.periodicity import CalendricPeriodicity, CyclicPeriodicity

_EPS = 1e-9

# ----------------------------------------------------------------------
# references: the per-object formulas the kernels replaced
# ----------------------------------------------------------------------


def reference_candidates(level, k):
    """Every k-set whose (k-1)-subsets all lie in ``level``, lexicographic."""
    known = set(level)
    universe = sorted({item for row in level for item in row})
    return [
        combo
        for combo in combinations(universe, k)
        if all(subset in known for subset in combinations(combo, k - 1))
    ]


def reference_validity(itemset_counts, antecedent_counts, thresholds, min_confidence):
    with np.errstate(divide="ignore", invalid="ignore"):
        confidence = np.where(
            antecedent_counts > 0,
            itemset_counts / np.maximum(antecedent_counts, 1),
            0.0,
        )
    return (itemset_counts >= thresholds) & (confidence >= min_confidence - 1e-12)


def reference_rules(counts, min_confidence, min_valid_units, max_consequent_size):
    """``(key, itemset_counts, antecedent_counts, valid)`` per rule, sorted."""
    rules = []
    for itemset in counts.counts:
        for key in enumerate_rule_splits(itemset, max_consequent_size):
            itemset_counts = counts.support_array(key.itemset)
            antecedent_counts = counts.support_array(key.antecedent)
            valid = reference_validity(
                itemset_counts, antecedent_counts, counts.thresholds, min_confidence
            )
            if np.count_nonzero(valid) >= min_valid_units:
                rules.append((key, itemset_counts, antecedent_counts, valid))
    rules.sort(key=lambda rule: (rule[0].antecedent.items, rule[0].consequent.items))
    return rules


def reference_runs(valid, min_coverage):
    """Maximal runs of consecutive valid offsets, walked one by one."""
    runs, start = [], None
    for offset, flag in enumerate(list(valid) + [False]):
        if flag and start is None:
            start = offset
        elif not flag and start is not None:
            if offset - start >= min_coverage:
                runs.append((start, offset - 1, offset - start))
            start = None
    return runs


def reference_cycles(valid, first_unit, max_period, min_repetitions, min_match):
    results = []
    n = len(valid)
    for period in range(1, max_period + 1):
        for relative in range(min(period, n)):
            members = valid[relative::period]
            if len(members) < min_repetitions:
                continue
            n_valid = int(np.count_nonzero(members))
            if n_valid / len(members) >= min_match - _EPS:
                results.append(((period, (first_unit + relative) % period), len(members), n_valid))
    return results


def masked_ratio(numerator, denominator, mask):
    below = int(denominator[mask].sum())
    return float(numerator[mask].sum()) / below if below else 0.0


def reference_findings(key, itemset_counts, antecedent_counts, valid, context, task):
    """One rule's periodicities, the per-series way (masks and all)."""
    found = []
    cycles = reference_cycles(
        valid, context.first_unit, task.max_period, task.min_repetitions, task.min_match
    )
    if task.prune_submultiples:
        cycles = prune_submultiple_cycles(cycles)
    candidates = []
    for (period, offset), n_members, n_valid in cycles:
        mask = np.zeros(context.n_units, dtype=bool)
        mask[(offset - context.first_unit) % period :: period] = True
        candidates.append((CyclicPeriodicity(period, offset, context.granularity), mask))
    for pattern in task.calendar_patterns:
        periodicity = CalendricPeriodicity(pattern, context.granularity)
        mask = np.array(
            [periodicity.matches_unit(context.to_absolute(o)) for o in range(context.n_units)],
            dtype=bool,
        )
        if np.count_nonzero(mask) < task.min_repetitions:
            continue
        if np.count_nonzero(valid & mask) / np.count_nonzero(mask) < task.min_match - _EPS:
            continue
        candidates.append((periodicity, mask))
    for periodicity, mask in candidates:
        n_members = int(np.count_nonzero(mask))
        n_valid = int(np.count_nonzero(valid & mask))
        found.append(
            (
                key,
                periodicity,
                n_members,
                n_valid,
                n_valid / n_members,
                masked_ratio(itemset_counts, context.unit_sizes, mask),
                masked_ratio(itemset_counts, antecedent_counts, mask),
            )
        )
    return found


def reference_levels(context, min_support, min_units, max_size):
    """The Itemset-and-dict level-wise loop the id-matrix one replaced."""
    thresholds = context.local_min_counts(min_support)
    retained = {}
    frontier = []
    for item, row in context.count_items_per_unit().items():
        if np.count_nonzero(row >= thresholds) >= min_units:
            retained[Itemset((item,))] = row
            frontier.append(Itemset((item,)))
    frontier.sort()
    k = 2
    while frontier and (max_size == 0 or k <= max_size):
        rows = reference_candidates([itemset.items for itemset in frontier], k)
        if not rows:
            break
        counted = context.count_candidates_per_unit([Itemset(row) for row in rows])
        frontier = sorted(
            itemset
            for itemset, row in counted.items()
            if np.count_nonzero(row >= thresholds) >= min_units
        )
        retained.update((itemset, counted[itemset]) for itemset in frontier)
        k += 1
    return retained


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


@st.composite
def levels(draw):
    """A sorted, duplicate-free level of (k-1)-itemsets, ids spread out."""
    k = draw(st.integers(min_value=2, max_value=5))
    universe = draw(st.integers(min_value=k - 1, max_value=9))
    pool = list(combinations(range(universe), k - 1))
    chosen = draw(st.lists(st.sampled_from(pool), max_size=40, unique=True))
    scale = draw(st.sampled_from([1, 3, 70_000]))  # 70_000 * 9 > 2**16
    return k, sorted(tuple(item * scale for item in row) for row in chosen)


_START = datetime(2026, 3, 2)


@st.composite
def databases(draw, n_days=18):
    """A day-stamped store with empty days, 4 items, small baskets."""
    days = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n_days, max_size=n_days))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    database = TransactionDatabase()
    for day, count in enumerate(days):
        for slot in range(count):
            items = [int(i) for i in np.flatnonzero(rng.random(4) < 0.6)] or [slot % 4]
            database.add(_START + timedelta(days=day, hours=slot), items)
    # Both ends of the window stay populated, so it spans all n_days.
    database.add(_START, [0, 1])
    database.add(_START + timedelta(days=n_days - 1), [0, 1, 2])
    return database


# ----------------------------------------------------------------------
# candidate generation
# ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(levels())
@example((3, []))
@example((4, [(0, 1, 2)]))
@example((3, [(5, 6), (5, 7), (5, 9), (5, 12)]))  # one prefix group
def test_join_prune_matches_combinations_oracle(level_case):
    k, level = level_case
    matrix = np.array(level, dtype=np.int64).reshape(-1, k - 1)
    candidates = next_level(matrix)
    assert candidates.shape[1] == k
    assert [tuple(row) for row in candidates.tolist()] == reference_candidates(level, k)


@settings(max_examples=60, deadline=None)
@given(levels(), st.integers(min_value=40, max_value=61))
def test_row_key_overflow_falls_back_to_byte_keys(level_case, shift):
    """Ids near 2**61 make ``base ** k`` overflow int64: byte keys take over."""
    k, level = level_case
    big = [tuple(item + (1 << shift) for item in row) for row in level]
    matrix = np.array(big, dtype=np.int64).reshape(-1, k - 1)
    if len(matrix) and k > 2:
        assert row_keys(matrix, int(matrix.max()) + 1).dtype.kind == "V"
    candidates = next_level(matrix)
    assert [tuple(row) for row in candidates.tolist()] == reference_candidates(big, k)
    # Lookup by key: every row finds itself, rows of the level's items
    # that are not in the level find nothing.
    index = RowIndex(matrix)
    assert index.find(matrix).tolist() == list(range(len(matrix)))
    universe = sorted({item for row in big for item in row})
    missing = [c for c in combinations(universe, k - 1) if c not in set(big)][:20]
    if missing:
        assert (index.find(np.array(missing, dtype=np.int64)) < 0).all()


@settings(max_examples=80, deadline=None)
@given(levels())
def test_row_index_finds_rows_in_any_order(level_case):
    k, level = level_case
    assume(level)
    matrix = np.array(level, dtype=np.int64).reshape(-1, k - 1)
    shuffled = matrix[np.random.default_rng(len(level)).permutation(len(matrix))]
    index = RowIndex(shuffled)
    found = index.find(matrix)
    assert (shuffled[found] == matrix).all()
    absent = np.full((1, k - 1), int(matrix.max()) + 5)  # beyond the base
    assert index.find(absent).tolist() == [-1]


def test_join_of_empty_and_single_rows():
    assert join(np.zeros((0, 2), dtype=np.int64)).shape == (0, 3)
    assert join(np.array([[1, 2]])).shape == (0, 3)
    assert as_itemsets(np.zeros((0, 3), dtype=np.int64)) == []


# ----------------------------------------------------------------------
# levels, rules, runs and cycles
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(databases(), st.sampled_from([0.3, 0.5, 1.0]), st.integers(1, 3), st.sampled_from([0, 2]))
def test_per_unit_counts_view_matches_dict_loop(database, min_support, min_units, max_size):
    context = TemporalContext(database, Granularity.DAY)
    counts = per_unit_frequent_itemsets(context, min_support, min_units, max_size)
    reference = reference_levels(context, min_support, min_units, max_size)
    assert list(counts.counts) == list(reference)
    for itemset, row in reference.items():
        assert np.array_equal(counts.counts[itemset], row)
        assert np.array_equal(counts.support_array(itemset), row)
    assert len(counts) == len(reference)
    assert not counts.support_array(Itemset([0, 1, 2, 3, 7])).any()


@settings(max_examples=40, deadline=None)
@given(
    databases(),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.integers(1, 3),
    st.sampled_from([0, 1]),
)
def test_candidate_rules_match_per_series_formula(
    database, min_confidence, min_valid_units, max_consequent_size
):
    context = TemporalContext(database, Granularity.DAY)
    counts = per_unit_frequent_itemsets(context, 0.3)
    series = candidate_rules(counts, min_confidence, min_valid_units, max_consequent_size)
    reference = reference_rules(counts, min_confidence, min_valid_units, max_consequent_size)
    assert [s.key for s in series] == [rule[0] for rule in reference]
    for one, (_, itemset_counts, antecedent_counts, valid) in zip(series, reference):
        assert np.array_equal(one.itemset_counts, itemset_counts)
        assert np.array_equal(one.antecedent_counts, antecedent_counts)
        assert np.array_equal(one.valid, valid)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_missing_or_zero_antecedents_count_zero(data):
    """Rules over hand-made counts whose antecedents are absent or zero."""
    database = data.draw(databases(n_days=6))
    context = TemporalContext(database, Granularity.DAY)
    n_units = context.n_units
    matrix = st.lists(
        st.integers(min_value=0, max_value=3), min_size=n_units, max_size=n_units
    )
    singles = np.array([[0], [2]])  # item 1 is never retained
    pairs = np.array([[0, 1], [0, 2], [1, 2]])
    levels = [
        (singles, np.array([data.draw(matrix) for _ in singles], dtype=np.int64)),
        (pairs, np.array([data.draw(matrix) for _ in pairs], dtype=np.int64)),
    ]
    counts = PerUnitCounts(context, levels, 0.5)
    series = candidate_rules(counts, 0.0, 1, 0)
    reference = reference_rules(counts, 0.0, 1, 0)
    assert [s.key for s in series] == [rule[0] for rule in reference]
    for one, (_, _, antecedent_counts, valid) in zip(series, reference):
        assert np.array_equal(one.antecedent_counts, antecedent_counts)
        assert np.array_equal(one.valid, valid)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), max_size=40), st.integers(1, 4))
@example([True, True, False, True], 1)  # leading and trailing runs
@example([], 1)
def test_maximal_runs_match_walk(flags, min_coverage):
    valid = np.array(flags, dtype=bool)
    assert maximal_valid_windows(valid, 1.0, min_coverage) == reference_runs(flags, min_coverage)
    matrix = np.array([flags, flags[::-1]], dtype=bool).reshape(2, len(flags))
    rows, starts, stops = maximal_runs(matrix)
    walked = [
        (row, start, end + 1)
        for row, line in enumerate(matrix.tolist())
        for start, end, _ in reference_runs(line, 1)
    ]
    assert list(zip(rows.tolist(), starts.tolist(), stops.tolist())) == walked


@settings(max_examples=40, deadline=None)
@given(databases(), st.integers(1, 3), st.sampled_from([1.0, 0.6]))
def test_periods_match_mask_sums(database, min_coverage, min_frequency):
    context = TemporalContext(database, Granularity.DAY)
    counts = per_unit_frequent_itemsets(context, 0.3)
    for series in candidate_rules(counts, 0.5, 1, 1):
        periods = periods_for_series(series, context, min_frequency, min_coverage)
        windows = maximal_valid_windows(series.valid, min_frequency, min_coverage)
        assert len(periods) == len(windows)
        for period, (start, end, n_valid) in zip(periods, windows):
            mask = np.zeros(context.n_units, dtype=bool)
            mask[start : end + 1] = True
            assert period.interval == TimeInterval.from_units(
                context.to_absolute(start), context.to_absolute(end), context.granularity
            )
            assert (period.first_unit, period.last_unit) == (
                context.to_absolute(start),
                context.to_absolute(end),
            )
            assert (period.n_units, period.n_valid_units) == (end - start + 1, n_valid)
            assert period.frequency == n_valid / (end - start + 1)
            assert period.temporal_support == masked_ratio(
                series.itemset_counts, context.unit_sizes, mask
            )
            assert period.temporal_confidence == masked_ratio(
                series.itemset_counts, series.antecedent_counts, mask
            )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.booleans(), max_size=30),
    st.integers(-50, 50),
    st.integers(1, 12),
    st.integers(1, 4),
    st.sampled_from([1.0, 0.75, 0.5]),
)
@example([True, False, True], 0, 12, 1, 1.0)  # window shorter than max_period
def test_cycles_of_sequence_match_double_loop(flags, first_unit, max_period, reps, match):
    valid = np.array(flags, dtype=bool)
    assert cycles_of_sequence(valid, first_unit, max_period, reps, match) == reference_cycles(
        valid, first_unit, max_period, reps, match
    )


@settings(max_examples=30, deadline=None)
@given(
    databases(n_days=23),
    st.sampled_from([1.0, 0.6]),
    st.booleans(),
    st.sampled_from([2, 9, 30]),
)
def test_periodicity_findings_match_per_series(database, min_match, prune, max_period):
    task = PeriodicityTask(
        Granularity.DAY,
        RuleThresholds(0.3, 0.5),
        max_period=max_period,
        min_match=min_match,
        min_repetitions=2,
        calendar_patterns=(
            CalendarPattern(weekdays=frozenset({5, 6})),
            CalendarPattern(days=frozenset({1})),  # fewer members than required
        ),
        prune_submultiples=prune,
    )
    context = TemporalContext(database, task.granularity)
    report = discover_periodicities(database, task, context=context)
    counts = per_unit_frequent_itemsets(context, 0.3, min_units=2)
    expected = [
        finding
        for series in candidate_rules(counts, 0.5, 2, task.max_consequent_size)
        for finding in reference_findings(
            series.key,
            series.itemset_counts,
            series.antecedent_counts,
            series.valid,
            context,
            task,
        )
    ]
    assert [
        (
            f.key,
            f.periodicity,
            f.n_member_units,
            f.n_valid_units,
            f.match_ratio,
            f.temporal_support,
            f.temporal_confidence,
        )
        for f in report.results
    ] == expected


# ----------------------------------------------------------------------
# restriction by unit mask
# ----------------------------------------------------------------------

_PATTERNS = {
    Granularity.HOUR: CalendarPattern(hours=frozenset({0, 13})),
    Granularity.DAY: CalendarPattern(weekdays=frozenset({2, 6})),
    Granularity.WEEK: CalendarPattern(days=frozenset(range(1, 20))),
    Granularity.MONTH: CalendarPattern(months=frozenset({1, 2, 12})),
    Granularity.QUARTER: CalendarPattern(months=frozenset({1, 2, 3})),
    Granularity.YEAR: CalendarPattern(years=frozenset({1969, 1971})),
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(list(Granularity)),
    st.lists(st.integers(min_value=-3 * 10**8, max_value=3 * 10**8), max_size=40),
    st.integers(1, 9),
    st.integers(0, 8),
    st.booleans(),
)
def test_unit_mask_restriction_matches_predicate(granularity, seconds, period, offset, calendric):
    epoch = datetime(1970, 1, 1)  # the stamps straddle it
    database = TransactionDatabase()
    for number, second in enumerate(seconds):
        database.add(epoch + timedelta(seconds=second), [number % 3])
    if calendric:
        feature = CalendricPeriodicity(_PATTERNS[granularity], granularity)
    else:
        feature = CyclicPeriodicity(period, offset % period, granularity)
    predicate = feature_predicate(feature, Granularity.DAY)
    expected = database.restrict(lambda transaction: predicate(transaction.timestamp))
    restricted = restrict_database(database, feature, Granularity.DAY)
    assert len(restricted) == len(expected)
    assert restricted.tids.tolist() == [t.tid for t in expected]
    assert restricted.catalog is database.catalog


def test_unit_mask_restriction_of_empty_database():
    feature = CyclicPeriodicity(7, 5, Granularity.DAY)
    assert len(restrict_database(TransactionDatabase(), feature, Granularity.DAY)) == 0
