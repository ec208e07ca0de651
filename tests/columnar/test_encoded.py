"""EncodedDatabase: CSR layout, time-unit bounds, zero-copy segments."""

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.columnar.encoded import EncodedDatabase
from repro.core import TransactionDatabase
from repro.errors import TransactionError
from repro.temporal import Granularity


def _encoded(tiny_db):
    return EncodedDatabase.from_database(tiny_db)


def test_from_database_preserves_rows(tiny_db):
    encoded = _encoded(tiny_db)
    assert len(encoded) == len(tiny_db)
    for position, transaction in enumerate(tiny_db):
        assert encoded.basket(position) == tuple(sorted(transaction.items))
        assert int(encoded.tids[position]) == transaction.tid
        assert encoded.timestamps[position] == transaction.timestamp


def test_baskets_are_python_ints(tiny_db):
    encoded = _encoded(tiny_db)
    for basket in encoded.iter_baskets():
        assert all(type(item) is int for item in basket)


def test_catalog_is_shared(tiny_db):
    encoded = _encoded(tiny_db)
    assert encoded.catalog is tiny_db.catalog
    bread = tiny_db.catalog.id("bread")
    assert bread in encoded.basket(0)


def test_from_baskets_sorts_and_dedupes():
    base = datetime(2026, 1, 1)
    encoded = EncodedDatabase.from_baskets(
        [(1, base, [3, 1, 3, 2]), (2, base + timedelta(days=1), [5])]
    )
    assert encoded.basket(0) == (1, 2, 3)
    assert encoded.basket(1) == (5,)
    assert encoded.n_items == 6


def test_from_baskets_rejects_unordered_input():
    base = datetime(2026, 1, 1)
    with pytest.raises(TransactionError):
        EncodedDatabase.from_baskets(
            [(1, base + timedelta(days=1), [1]), (2, base, [2])]
        )


def test_item_frequencies_matches_manual_count(tiny_db):
    encoded = _encoded(tiny_db)
    expected = {}
    for transaction in tiny_db:
        for item in transaction.items:
            expected[item] = expected.get(item, 0) + 1
    assert encoded.item_frequencies() == expected


def test_unit_bounds_cover_empty_units():
    db = TransactionDatabase()
    base = datetime(2026, 1, 1)
    db.add(base, [0, 1])
    db.add(base + timedelta(days=3), [1])  # days 2 and 3 (offsets 1, 2) empty
    db.add(base + timedelta(days=3, hours=1), [2])
    encoded = EncodedDatabase.from_database(db)
    first_unit, bounds = encoded.unit_bounds(Granularity.DAY)
    assert len(bounds) == 5  # four units plus the closing edge
    assert bounds.tolist() == [0, 1, 1, 1, 3]
    sizes = np.diff(bounds)
    assert sizes.tolist() == [1, 0, 0, 2]
    assert first_unit == encoded.unit_offsets(Granularity.DAY)[0]


def test_database_encodes_once_until_it_changes():
    db = TransactionDatabase()
    base = datetime(2026, 1, 1)
    db.add(base, ["a", "b"])
    first = db.encoded()
    assert db.encoded() is first  # memoized: contexts and Apriori share it
    assert first.stamps.dtype == np.dtype("datetime64[us]")
    assert first.stamps.tolist() == list(first.timestamps)

    db.add(base + timedelta(hours=1), ["a"])
    second = db.encoded()
    assert second is not first and len(second) == 2
    assert len(first) == 1  # the old encoding is never mutated

    db.catalog.add("unseen")  # a wider universe is a different encoding
    third = db.encoded()
    assert third is not second and third.n_items == second.n_items + 1
    # The uncached encoder still encodes afresh every time.
    assert EncodedDatabase.from_database(db) is not EncodedDatabase.from_database(db)


def test_unit_bounds_empty_database_raises():
    empty = EncodedDatabase.from_database(TransactionDatabase())
    assert empty.is_empty()
    with pytest.raises(TransactionError):
        empty.unit_bounds(Granularity.DAY)
    with pytest.raises(TransactionError):
        empty.time_span()


def test_segment_is_zero_copy_view(tiny_db):
    encoded = _encoded(tiny_db)
    segment = encoded.segment(1, 3)
    assert len(segment) == 2
    assert segment.baskets() == [encoded.basket(1), encoded.basket(2)]
    vertical = segment.vertical()
    assert vertical.n_transactions == 2
    # The segment shares the parent's flat array — no copies were made.
    assert segment.encoded is encoded


def test_empty_segment_baskets_and_vertical(tiny_db):
    encoded = _encoded(tiny_db)
    segment = encoded.segment(2, 2)
    assert len(segment) == 0
    assert segment.baskets() == []
    assert segment.vertical().n_transactions == 0


def test_segment_vertical_supports_match_baskets(tiny_db):
    encoded = _encoded(tiny_db)
    segment = encoded.segment()
    vertical = segment.vertical()
    for item in range(encoded.n_items):
        expected = sum(1 for basket in segment.baskets() if item in basket)
        assert vertical.support([item]) == expected


def test_average_transaction_size(tiny_db):
    encoded = _encoded(tiny_db)
    assert encoded.average_transaction_size() == pytest.approx(
        sum(len(t.items) for t in tiny_db) / len(tiny_db)
    )
    empty = EncodedDatabase.from_database(TransactionDatabase())
    assert empty.average_transaction_size() == 0.0
