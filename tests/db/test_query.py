"""Unit tests for the integrated query function."""

from datetime import datetime

import pytest

from repro.db.query import (
    basket_size_distribution,
    item_support_in_window,
    run_mutation,
    run_query,
    summarize,
    top_items,
    volume_by_unit,
)
from repro.db.sqlite_store import SqliteStore
from repro.errors import DatabaseError
from repro.temporal import Granularity


@pytest.fixture
def store(tiny_db):
    s = SqliteStore(":memory:")
    s.save_database(tiny_db)
    yield s
    s.close()


class TestRunQuery:
    def test_select(self, store):
        result = run_query(store, "SELECT COUNT(DISTINCT tid) AS n FROM transactions")
        assert result.columns == ("n",)
        assert result.rows == ((5,),)

    def test_parameters(self, store):
        result = run_query(
            store,
            "SELECT COUNT(DISTINCT tid) FROM transactions WHERE item = ?",
            ("bread",),
        )
        assert result.rows[0][0] == 4

    @pytest.mark.parametrize(
        "sql",
        [
            "DELETE FROM transactions",
            "DROP TABLE transactions",
            "INSERT INTO transactions VALUES (9, '2026-01-01', 'x')",
            "PRAGMA user_version = 2",
            "update transactions set item = 'x'",
        ],
    )
    def test_mutations_rejected(self, store, sql):
        with pytest.raises(DatabaseError):
            run_query(store, sql)

    def test_empty_query_rejected(self, store):
        with pytest.raises(DatabaseError):
            run_query(store, "   ")

    def test_sql_error_wrapped(self, store):
        with pytest.raises(DatabaseError):
            run_query(store, "SELECT * FROM no_such_table")

    def test_format_renders_table(self, store):
        result = run_query(store, "SELECT item FROM transactions ORDER BY item")
        text = result.format(limit=2)
        assert "item" in text
        assert "more row(s)" in text


class TestRunMutation:
    def test_failed_mutation_leaves_no_open_transaction(self, store):
        before = store.fingerprint()
        with pytest.raises(DatabaseError):
            run_mutation(
                store,
                "INSERT INTO transactions (tid, ts, item) VALUES (1, '2026-03-02', 'bread')",
            )
        assert not store.connection.in_transaction
        assert store.fingerprint() == before


class TestCannedQueries:
    def test_summarize(self, store):
        result = summarize(store)
        row = dict(zip(result.columns, result.rows[0]))
        assert row["transactions"] == 5
        assert row["distinct_items"] == 5

    def test_top_items(self, store):
        result = top_items(store, limit=2)
        assert result.rows[0][0] == "bread"
        assert result.rows[0][1] == 4
        assert result.rows[0][2] == pytest.approx(0.8)
        assert len(result.rows) == 2

    def test_volume_by_unit(self, store):
        result = volume_by_unit(store, Granularity.DAY)
        assert len(result.rows) == 5
        assert all(count == 1 for _label, count in result.rows)

    def test_volume_by_month(self, store):
        result = volume_by_unit(store, Granularity.MONTH)
        assert result.rows == (("2026-03", 5),)

    def test_basket_size_distribution(self, store):
        result = basket_size_distribution(store)
        distribution = dict(result.rows)
        assert distribution == {2: 3, 3: 1, 4: 1}

    def test_item_support_in_window(self, store):
        # window covers {bread,butter}, {bread,milk}, {beer,diapers}
        support = item_support_in_window(
            store, "bread", datetime(2026, 3, 3), datetime(2026, 3, 6)
        )
        assert support == pytest.approx(2 / 3)

    def test_item_support_empty_window(self, store):
        support = item_support_in_window(
            store, "bread", datetime(2030, 1, 1), datetime(2030, 2, 1)
        )
        assert support == 0.0
