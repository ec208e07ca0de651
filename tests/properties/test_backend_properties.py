"""Property tests: every counting backend is exchangeable for ``dict``.

The backend registry's contract is that backend choice is purely a
performance decision — all registered backends, and ``"auto"``, must
produce bit-identical supports on any input.  These properties pin that
against randomized databases featuring the awkward shapes: single-item
baskets, duplicated baskets, and time gaps that create empty units; a
differential over the function-level entry points pins ``"auto"`` to the
``dict`` reference on the golden stores.
"""

import random
from datetime import datetime, timedelta
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.backends import BasketSegment, available_backends, get_backend
from repro.columnar.bitmaps import VerticalIndex
from repro.columnar.encoded import EncodedDatabase
from repro.core.apriori import AprioriOptions, apriori
from repro.core.counting import DictCounter
from repro.core.items import Itemset
from repro.core.transactions import TransactionDatabase
from repro.mining import (
    ConstrainedTask,
    PeriodicityTask,
    RuleThresholds,
    ValidPeriodTask,
    detect_trends,
    discover_itemset_periods,
    discover_periodicities,
    mine_with_feature,
)
from repro.mining.context import TemporalContext, per_unit_frequent_itemsets
from repro.temporal import Granularity, TimeInterval
from repro.tml.executor import ExecutionEnvironment, TmlExecutor

from tests.golden.test_golden_mining import canonical_basket_db, canonical_quest_db

N_ITEMS = 8

#: Every strategy name a caller can pass: the registry plus ``"auto"``.
STRATEGIES = [*available_backends(), "auto"]


@st.composite
def gapped_databases(draw):
    """Databases with single-item baskets and day gaps (empty units)."""
    n = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    db = TransactionDatabase()
    base = datetime(2026, 1, 1)
    day = 0
    for _ in range(n):
        # Jumping 0-3 days forward leaves empty units behind.
        day += rng.randrange(4)
        basket = {rng.randrange(N_ITEMS) for _ in range(rng.randrange(1, 5))}
        db.add(base + timedelta(days=day, minutes=len(db)), basket)
    return db


@st.composite
def candidate_sets(draw):
    """Same-size candidate itemsets over the item universe."""
    k = draw(st.integers(min_value=1, max_value=3))
    pool = list(combinations(range(N_ITEMS), k))
    chosen = draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True)
    )
    return [Itemset(c) for c in chosen]


def _dict_reference(candidates, baskets):
    counter = DictCounter(candidates)
    for basket in baskets:
        counter.count_transaction(basket)
    return counter.counts()


@given(gapped_databases(), candidate_sets())
@settings(max_examples=40, deadline=None)
def test_every_backend_matches_dict_counter(db, candidates):
    baskets = [t.items.items for t in db]
    reference = _dict_reference(candidates, baskets)
    segment = BasketSegment(baskets)
    for name in STRATEGIES:
        counted = get_backend(name).count_pass(candidates, segment)
        assert counted == reference, f"backend {name!r} disagrees"


@given(gapped_databases(), st.sampled_from([0.1, 0.3, 0.6]))
@settings(max_examples=30, deadline=None)
def test_apriori_identical_across_backends(db, min_support):
    reference = apriori(db, min_support, AprioriOptions(counting="dict")).as_dict()
    encoded = EncodedDatabase.from_database(db)
    for name in STRATEGIES:
        options = AprioriOptions(counting=name)
        assert apriori(db, min_support, options).as_dict() == reference
        assert apriori(encoded, min_support, options).as_dict() == reference


@given(gapped_databases(), candidate_sets())
@settings(max_examples=30, deadline=None)
def test_per_unit_counts_agree_across_backends(db, candidates):
    context = TemporalContext(db, Granularity.DAY)
    reference = context.count_candidates_per_unit(candidates, counting="dict")
    for name in STRATEGIES:
        counted = context.count_candidates_per_unit(candidates, counting=name)
        for candidate in candidates:
            assert np.array_equal(counted[candidate], reference[candidate]), (
                f"backend {name!r} disagrees on {candidate!r}"
            )


@given(gapped_databases(), st.sampled_from([0.2, 0.5]))
@settings(max_examples=20, deadline=None)
def test_per_unit_frequent_itemsets_backend_invariant(db, min_support):
    context = TemporalContext(db, Granularity.DAY)
    reference = per_unit_frequent_itemsets(context, min_support, counting="dict")
    for name in STRATEGIES:
        counts = per_unit_frequent_itemsets(context, min_support, counting=name)
        assert set(counts.counts) == set(reference.counts)
        for itemset, row in counts.counts.items():
            assert np.array_equal(row, reference.counts[itemset])


@given(gapped_databases(), candidate_sets())
@settings(max_examples=30, deadline=None)
def test_vertical_index_support_is_exact(db, candidates):
    baskets = [t.items.items for t in db]
    index = VerticalIndex.from_baskets(baskets, n_item_rows=N_ITEMS)
    for candidate in candidates:
        expected = sum(
            1 for basket in baskets if set(candidate.items) <= set(basket)
        )
        assert index.support(candidate.items) == expected


_THRESHOLDS = RuleThresholds(min_support=0.3, min_confidence=0.6)
_PERIODS = ValidPeriodTask(granularity=Granularity.DAY, thresholds=_THRESHOLDS)
_CYCLES = PeriodicityTask(
    granularity=Granularity.DAY, thresholds=_THRESHOLDS, max_period=7, min_repetitions=2
)


def _first_week(db):
    start, _ = db.time_span()
    feature = TimeInterval(start, start + timedelta(days=7))
    return ConstrainedTask(feature=feature, thresholds=_THRESHOLDS)


def _per_unit(db, counting):
    context = TemporalContext(db, Granularity.DAY)
    counts = per_unit_frequent_itemsets(context, 0.3, counting=counting).counts
    return {itemset: row.tolist() for itemset, row in counts.items()}


def _tml(statement):
    def run(db, counting):
        # TML renders through the catalog, so every item needs a label.
        labelled = TransactionDatabase()
        for transaction in db:
            labelled.add(transaction.timestamp, [f"i{item}" for item in transaction.items])
        environment = ExecutionEnvironment()
        environment.register("sales", labelled)
        environment.set_engine(counting)
        return TmlExecutor(environment).execute(statement).payload.results

    return run


#: name -> ``(database, counting) -> comparable result``.
ENTRY_POINTS = {
    "apriori": lambda db, counting: apriori(
        db, 0.1, AprioriOptions(counting=counting)
    ).as_dict(),
    "per_unit_frequent_itemsets": _per_unit,
    "discover_periodicities": lambda db, counting: discover_periodicities(
        db, _CYCLES, counting=counting
    ).results,
    "mine_with_feature": lambda db, counting: mine_with_feature(
        db, _first_week(db), counting=counting
    ).results,
    "discover_itemset_periods": lambda db, counting: discover_itemset_periods(
        db, _PERIODS, counting=counting
    ).results,
    "detect_trends": lambda db, counting: detect_trends(
        db, Granularity.DAY, 0.3, min_total_change=0.0, min_r_squared=0.0,
        counting=counting,
    ).results,
    "MINE ITEMSETS": _tml(
        "MINE ITEMSETS FROM sales AT GRANULARITY day WITH SUPPORT >= 0.3;"
    ),
    "MINE TRENDS": _tml(
        "MINE TRENDS FROM sales AT GRANULARITY day WITH SUPPORT >= 0.3 "
        "HAVING CHANGE >= 0, FIT >= 0;"
    ),
}


@pytest.mark.parametrize("build", [canonical_basket_db, canonical_quest_db])
@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
def test_auto_equals_dict_at_every_entry_point(entry_point, build):
    db = build()
    run = ENTRY_POINTS[entry_point]
    assert run(db, "auto") == run(db, "dict")
