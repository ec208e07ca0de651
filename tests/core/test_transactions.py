"""Unit tests for transactions and the in-memory database."""

import copy
import pickle
from datetime import datetime, timedelta

import pytest

from repro.core.items import Itemset
from repro.core.transactions import Transaction, TransactionDatabase
from repro.errors import TransactionError


class TestTransaction:
    def test_contains(self):
        transaction = Transaction(0, datetime(2026, 1, 1), Itemset([1, 2, 3]))
        assert transaction.contains(Itemset([1, 3]))
        assert not transaction.contains(Itemset([4]))

    def test_len(self):
        assert len(Transaction(0, datetime(2026, 1, 1), Itemset([1, 2]))) == 2

    def test_rejects_non_datetime(self):
        with pytest.raises(TransactionError):
            Transaction(0, "2026-01-01", Itemset([1]))  # type: ignore[arg-type]

    def test_slotted_transaction_copies_and_pickles(self):
        transaction = Transaction(7, datetime(2026, 1, 1), Itemset([2, 1]))
        assert not hasattr(transaction, "__dict__")
        for clone in (
            copy.copy(transaction),
            copy.deepcopy(transaction),
            pickle.loads(pickle.dumps(transaction)),
        ):
            assert clone == transaction
            assert hash(clone.items) == hash(transaction.items)


class TestAddAndAccess:
    def test_add_with_labels(self):
        db = TransactionDatabase()
        transaction = db.add(datetime(2026, 1, 1), ["bread", "milk"])
        assert db.catalog.decode(transaction.items) == ("bread", "milk")

    def test_add_with_ids(self):
        db = TransactionDatabase()
        transaction = db.add(datetime(2026, 1, 1), [5, 3])
        assert transaction.items == Itemset([3, 5])

    def test_add_rejects_bad_item(self):
        db = TransactionDatabase()
        with pytest.raises(TransactionError):
            db.add(datetime(2026, 1, 1), [3.5])

    def test_auto_tids_are_unique(self):
        db = TransactionDatabase()
        first = db.add(datetime(2026, 1, 1), [1])
        second = db.add(datetime(2026, 1, 2), [2])
        assert first.tid != second.tid

    def test_iteration_is_time_sorted(self):
        db = TransactionDatabase()
        db.add(datetime(2026, 1, 3), [1])
        db.add(datetime(2026, 1, 1), [2])
        db.add(datetime(2026, 1, 2), [3])
        stamps = [t.timestamp for t in db]
        assert stamps == sorted(stamps)

    def test_getitem_after_sorting(self):
        db = TransactionDatabase()
        db.add(datetime(2026, 1, 3), [1])
        db.add(datetime(2026, 1, 1), [2])
        assert db[0].timestamp == datetime(2026, 1, 1)

    def test_time_span(self, tiny_db):
        start, end = tiny_db.time_span()
        assert start == datetime(2026, 3, 2)
        assert end == datetime(2026, 3, 6)

    def test_time_span_empty_raises(self):
        with pytest.raises(TransactionError):
            TransactionDatabase().time_span()

    def test_items_universe(self, tiny_db):
        assert len(tiny_db.items_universe()) == 5  # bread butter milk beer diapers

    def test_average_transaction_size(self, tiny_db):
        assert tiny_db.average_transaction_size() == pytest.approx(13 / 5)

    def test_average_size_empty(self):
        assert TransactionDatabase().average_transaction_size() == 0.0


class TestCountingAndSlicing:
    def test_support_count(self, tiny_db):
        bread_milk = tiny_db.catalog.encode_strict(["bread", "milk"])
        assert tiny_db.support_count(bread_milk) == 3

    def test_support(self, tiny_db):
        bread = tiny_db.catalog.encode_strict(["bread"])
        assert tiny_db.support(bread) == pytest.approx(0.8)

    def test_support_empty_db(self):
        assert TransactionDatabase().support(Itemset([1])) == 0.0

    def test_restrict_shares_catalog(self, tiny_db):
        sliced = tiny_db.restrict(lambda t: len(t.items) == 2)
        assert sliced.catalog is tiny_db.catalog
        assert len(sliced) == 3  # {bread,butter}, {bread,milk}, {beer,diapers}

    def test_between_half_open(self, tiny_db):
        sliced = tiny_db.between(datetime(2026, 3, 3), datetime(2026, 3, 5))
        assert len(sliced) == 2  # days 3 and 4, not 5

    def test_between_empty_window(self, tiny_db):
        assert len(tiny_db.between(datetime(2030, 1, 1), datetime(2030, 2, 1))) == 0

    def test_item_frequencies(self, tiny_db):
        frequencies = tiny_db.item_frequencies()
        bread = tiny_db.catalog.id("bread")
        assert frequencies[bread] == 4

    def test_summary(self, tiny_db):
        summary = tiny_db.summary()
        assert summary["transactions"] == 5
        assert summary["distinct_items"] == 5

    def test_summary_empty(self):
        summary = TransactionDatabase().summary()
        assert summary["transactions"] == 0
        assert summary["span"] is None
