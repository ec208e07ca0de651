"""Unit tests for temporal partitioning and shared per-unit counting."""

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.core.apriori import _min_count, apriori
from repro.core.items import Itemset
from repro.core.transactions import TransactionDatabase
from repro.errors import MiningParameterError, TransactionError
from repro.mining.context import TemporalContext, per_unit_frequent_itemsets
from repro.obs.metrics import MetricsRegistry, default_registry, set_default_registry
from repro.temporal.granularity import Granularity, unit_index


@pytest.fixture
def three_day_db():
    db = TransactionDatabase()
    base = datetime(2026, 5, 1)
    # day 0: 3 transactions, day 1: none, day 2: 2 transactions
    db.add(base, [1, 2])
    db.add(base + timedelta(hours=5), [1, 2, 3])
    db.add(base + timedelta(hours=10), [3])
    db.add(base + timedelta(days=2), [1, 2])
    db.add(base + timedelta(days=2, hours=3), [2])
    return db


class TestTemporalContext:
    def test_rejects_empty_database(self):
        with pytest.raises(TransactionError):
            TemporalContext(TransactionDatabase(), Granularity.DAY)

    def test_unit_range_includes_empty_units(self, three_day_db):
        context = TemporalContext(three_day_db, Granularity.DAY)
        assert context.n_units == 3
        assert list(context.unit_sizes) == [3, 0, 2]

    def test_offsets_roundtrip(self, three_day_db):
        context = TemporalContext(three_day_db, Granularity.DAY)
        first = unit_index(datetime(2026, 5, 1), Granularity.DAY)
        assert context.first_unit == first
        assert context.to_offset(first + 2) == 2
        assert context.to_absolute(2) == first + 2

    def test_labels(self, three_day_db):
        context = TemporalContext(three_day_db, Granularity.DAY)
        assert context.label(0) == "2026-05-01"

    def test_baskets_in_unit(self, three_day_db):
        context = TemporalContext(three_day_db, Granularity.DAY)
        assert len(context.baskets_in_unit(0)) == 3
        assert context.baskets_in_unit(1) == []

    def test_count_items_per_unit(self, three_day_db):
        context = TemporalContext(three_day_db, Granularity.DAY)
        counts = context.count_items_per_unit()
        assert list(counts[1]) == [2, 0, 1]
        assert list(counts[2]) == [2, 0, 2]
        assert list(counts[3]) == [2, 0, 0]

    def test_count_candidates_per_unit_matches_slicing(self, three_day_db):
        context = TemporalContext(three_day_db, Granularity.DAY)
        candidate = Itemset([1, 2])
        counts = context.count_candidates_per_unit([candidate])[candidate]
        base = datetime(2026, 5, 1)
        for offset in range(3):
            day = three_day_db.between(
                base + timedelta(days=offset), base + timedelta(days=offset + 1)
            )
            assert counts[offset] == day.support_count(candidate)

    def test_unit_mask_skips_units(self, three_day_db):
        context = TemporalContext(three_day_db, Granularity.DAY)
        candidate = Itemset([1, 2])
        mask = np.array([True, False, False])
        counts = context.count_candidates_per_unit([candidate], unit_mask=mask)
        assert list(counts[candidate]) == [2, 0, 0]

    def test_one_backend_dispatch_per_counting_pass(self, three_day_db):
        """``resolve_backend`` runs per pass, not per time unit."""
        context = TemporalContext(three_day_db, Granularity.DAY)
        candidates = [Itemset([1, 2]), Itemset([2, 3])]
        original = default_registry()
        registry = set_default_registry(MetricsRegistry())
        try:
            context.count_candidates_per_unit(candidates)
            context.count_candidates_masked(
                candidates, np.ones((2, context.n_units), dtype=bool), counting="dict"
            )
        finally:
            set_default_registry(original)
        dispatched = registry.snapshot()["repro_counting_dispatch_total"]
        assert dispatched == {"backend=packed": 1.0, "backend=dict": 1.0}

    def test_local_min_counts_empty_units_unsatisfiable(self, three_day_db):
        context = TemporalContext(three_day_db, Granularity.DAY)
        thresholds = context.local_min_counts(0.5)
        assert thresholds[1] == 1  # empty unit: count 0 < 1 always
        assert thresholds[0] == 2  # ceil(0.5 * 3)
        assert thresholds[2] == 1  # ceil(0.5 * 2)

    @pytest.mark.parametrize("min_support", [0.001, 0.1, 0.3, 1 / 3, 0.5, 0.7, 1.0])
    def test_local_min_counts_is_elementwise_min_count(self, min_support):
        """The vectorized thresholds round exactly like ``_min_count``."""
        db = TransactionDatabase()
        base = datetime(2026, 5, 1)
        # Unit sizes 1..12 with a gap (empty unit) after every third day;
        # size 10 at 0.3 is the float case: 0.3 * 10 == 2.9999999999999996.
        day = 0
        for size in range(1, 13):
            for minute in range(size):
                db.add(base + timedelta(days=day, minutes=minute), [1])
            day += 2 if size % 3 == 0 else 1
        context = TemporalContext(db, Granularity.DAY)
        assert 0 in context.unit_sizes and 10 in context.unit_sizes
        expected = [
            _min_count(min_support, int(size)) if size else 1
            for size in context.unit_sizes
        ]
        thresholds = context.local_min_counts(min_support)
        assert thresholds.dtype == np.int64
        assert thresholds.tolist() == expected


class TestPerUnitFrequentItemsets:
    def test_validation(self, three_day_db):
        context = TemporalContext(three_day_db, Granularity.DAY)
        with pytest.raises(MiningParameterError):
            per_unit_frequent_itemsets(context, 0.0)
        with pytest.raises(MiningParameterError):
            per_unit_frequent_itemsets(context, 0.5, min_units=0)

    def test_counts_match_per_unit_apriori(self, random_db):
        """Shared counting must equal mining each unit independently."""
        context = TemporalContext(random_db, Granularity.DAY)
        counts = per_unit_frequent_itemsets(context, 0.2, min_units=1)
        thresholds = context.local_min_counts(0.2)
        # reference: apriori per unit
        base_start, _ = random_db.time_span()
        for offset in range(context.n_units):
            start = datetime(2026, 1, 1) + timedelta(days=offset)
            day = random_db.between(start, start + timedelta(days=1))
            if len(day) == 0:
                continue
            reference = apriori(day, 0.2)
            for itemset, count in reference.items():
                assert itemset in counts.counts, itemset
                assert counts.counts[itemset][offset] == count

    def test_min_units_prunes(self, seasonal_data):
        context = TemporalContext(seasonal_data.database, Granularity.MONTH)
        loose = per_unit_frequent_itemsets(context, 0.3, min_units=1)
        tight = per_unit_frequent_itemsets(context, 0.3, min_units=3)
        assert set(tight.counts) <= set(loose.counts)
        thresholds = context.local_min_counts(0.3)
        for itemset, row in tight.counts.items():
            assert int(np.count_nonzero(row >= thresholds)) >= 3

    def test_max_size(self, random_db):
        context = TemporalContext(random_db, Granularity.DAY)
        counts = per_unit_frequent_itemsets(context, 0.1, max_size=2)
        assert all(len(itemset) <= 2 for itemset in counts.counts)

    def test_subset_closure(self, random_db):
        """All subsets of a retained itemset are retained."""
        context = TemporalContext(random_db, Granularity.DAY)
        counts = per_unit_frequent_itemsets(context, 0.2, min_units=1)
        for itemset in counts.counts:
            for size in range(1, len(itemset)):
                for subset in itemset.subsets_of_size(size):
                    assert subset in counts.counts

    def test_locally_frequent_mask(self, three_day_db):
        context = TemporalContext(three_day_db, Granularity.DAY)
        counts = per_unit_frequent_itemsets(context, 0.5, min_units=1)
        mask = counts.locally_frequent_mask(Itemset([1, 2]))
        assert list(mask) == [True, False, True]

    def test_support_array_for_unknown_itemset(self, three_day_db):
        context = TemporalContext(three_day_db, Granularity.DAY)
        counts = per_unit_frequent_itemsets(context, 0.5)
        assert list(counts.support_array(Itemset([99]))) == [0, 0, 0]
