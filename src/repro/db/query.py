"""The ad-hoc query function of the integrated system.

In the IQMI mining process the first step is *data understanding*: "the
data in any database can firstly be analysed ... to get some useful
information (e.g., summary information about the data for designing
mining tasks)".  This module provides that query function: raw read-only
SQL over the store plus canned summaries mining users always need
(volume over time, hot items, basket-size distribution).
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from datetime import datetime
from typing import List, Optional, Sequence, Tuple

from repro.db.sqlite_store import SqliteStore
from repro.errors import DatabaseError
from repro.temporal.granularity import Granularity, unit_index, unit_label

_FORBIDDEN_PREFIXES = (
    "insert", "update", "delete", "drop", "alter", "create", "replace",
    "attach", "detach", "pragma", "vacuum", "reindex",
)

#: DML verbs :func:`run_mutation` accepts (schema changes stay forbidden).
MUTATION_PREFIXES = ("insert", "update", "delete", "replace")


@dataclass(frozen=True)
class QueryResult:
    """A relational result: column names plus rows."""

    columns: Tuple[str, ...]
    rows: Tuple[Tuple[object, ...], ...]

    def __len__(self) -> int:
        return len(self.rows)

    def format(self, limit: int = 20) -> str:
        """Plain-text table rendering (elided past ``limit`` rows)."""
        shown = self.rows if limit == 0 else self.rows[:limit]
        widths = [len(c) for c in self.columns]
        rendered = [[_cell(v) for v in row] for row in shown]
        for row in rendered:
            for i, value in enumerate(row):
                widths[i] = max(widths[i], len(value))
        lines = [
            " | ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in rendered:
            lines.append(" | ".join(v.ljust(widths[i]) for i, v in enumerate(row)))
        if limit and len(self.rows) > limit:
            lines.append(f"... {len(self.rows) - limit} more row(s)")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def run_query(
    store: SqliteStore, sql: str, parameters: Sequence[object] = ()
) -> QueryResult:
    """Execute read-only SQL against the store.

    Mutating statements are rejected — the query function exists for data
    understanding, not data management.
    """
    head = sql.strip().split(None, 1)
    if not head:
        raise DatabaseError("empty query")
    if head[0].lower() in _FORBIDDEN_PREFIXES:
        raise DatabaseError(
            f"only read-only queries are allowed, got {head[0].upper()}"
        )
    try:
        columns, rows = store.fetch_all(sql, tuple(parameters))
    except sqlite3.Error as error:
        raise DatabaseError(f"query failed: {error}") from error
    return QueryResult(columns=columns, rows=rows)


def is_mutating_sql(sql: str) -> bool:
    """True when ``sql`` starts with a DML verb run_mutation accepts."""
    head = sql.strip().split(None, 1)
    return bool(head) and head[0].lower() in MUTATION_PREFIXES


def run_mutation(
    store: SqliteStore, sql: str, parameters: Sequence[object] = ()
) -> QueryResult:
    """Execute a DML statement (INSERT/UPDATE/DELETE/REPLACE) and commit.

    Goes through the store's retry-wrapped primitives, so transient lock
    contention is absorbed.  Returns a one-row result with the affected
    row count.  Schema-changing statements stay rejected.
    """
    head = sql.strip().split(None, 1)
    if not head:
        raise DatabaseError("empty statement")
    verb = head[0].lower()
    if verb not in MUTATION_PREFIXES:
        raise DatabaseError(
            f"only {', '.join(v.upper() for v in MUTATION_PREFIXES)} are "
            f"allowed here, got {head[0].upper()}"
        )
    # Execute-and-commit atomically with respect to other threads'
    # reads on the shared connection.
    with store.lock:
        try:
            cursor = store._execute(sql, tuple(parameters))
            affected = cursor.rowcount
            store._commit()
        except sqlite3.Error as error:
            # A failed statement leaves its implicit transaction open, and
            # with it SQLite's write lock and an uncacheable fingerprint.
            store.connection.rollback()
            raise DatabaseError(f"mutation failed: {error}") from error
    return QueryResult(
        columns=("rows_affected",), rows=((affected,),)
    )


def summarize(store: SqliteStore) -> QueryResult:
    """Headline statistics: transactions, items, rows, span."""
    _, rows = store.fetch_all(
        "SELECT COUNT(DISTINCT tid), COUNT(DISTINCT item), COUNT(*),"
        " MIN(ts), MAX(ts) FROM transactions"
    )
    return QueryResult(
        columns=("transactions", "distinct_items", "item_rows", "first_ts", "last_ts"),
        rows=(rows[0],),
    )


def top_items(store: SqliteStore, limit: int = 10) -> QueryResult:
    """Most supported items with absolute and relative support."""
    total = max(store.count_transactions(), 1)
    _, fetched = store.fetch_all(
        "SELECT item, COUNT(DISTINCT tid) AS n FROM transactions"
        " GROUP BY item ORDER BY n DESC, item LIMIT ?",
        (limit,),
    )
    rows = tuple((item, n, n / total) for item, n in fetched)
    return QueryResult(columns=("item", "count", "support"), rows=rows)


def volume_by_unit(
    store: SqliteStore, granularity: Granularity = Granularity.MONTH
) -> QueryResult:
    """Transactions per time unit — the first thing a task designer plots."""
    _, fetched = store.fetch_all(
        "SELECT ts, tid FROM transactions GROUP BY tid ORDER BY ts"
    )
    buckets: dict = {}
    for stamp_text, _tid in fetched:
        index = unit_index(datetime.fromisoformat(stamp_text), granularity)
        buckets[index] = buckets.get(index, 0) + 1
    rows = tuple(
        (unit_label(index, granularity), count)
        for index, count in sorted(buckets.items())
    )
    return QueryResult(columns=(str(granularity), "transactions"), rows=rows)


def basket_size_distribution(store: SqliteStore) -> QueryResult:
    """Histogram of basket sizes (the 'T' parameter of the dataset)."""
    _, rows = store.fetch_all(
        "SELECT size, COUNT(*) FROM ("
        " SELECT tid, COUNT(*) AS size FROM transactions GROUP BY tid)"
        " GROUP BY size ORDER BY size"
    )
    return QueryResult(columns=("basket_size", "transactions"), rows=rows)


def item_support_in_window(
    store: SqliteStore, item: str, start: datetime, end: datetime
) -> float:
    """Relative support of one item within ``[start, end)``.

    A data-understanding probe for picking min-support thresholds.
    """
    _, total_rows = store.fetch_all(
        "SELECT COUNT(DISTINCT tid) FROM transactions WHERE ts >= ? AND ts < ?",
        (start.isoformat(), end.isoformat()),
    )
    total = total_rows[0][0]
    if not total:
        return 0.0
    _, item_rows = store.fetch_all(
        "SELECT COUNT(DISTINCT tid) FROM transactions"
        " WHERE item = ? AND ts >= ? AND ts < ?",
        (item, start.isoformat(), end.isoformat()),
    )
    return item_rows[0][0] / total
