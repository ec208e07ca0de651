"""SQLite-backed transaction store.

The paper's IQMS prototype integrates its mining language with Oracle
SQL; the Oracle role — a persistent relational store with an ad-hoc query
function — is played here by the Python standard library's ``sqlite3``
(see the substitution table in DESIGN.md).

Relational schema (one row per item occurrence, the classic basket
layout)::

    CREATE TABLE transactions (
        tid   INTEGER NOT NULL,
        ts    TEXT    NOT NULL,   -- ISO-8601 timestamp
        item  TEXT    NOT NULL,
        PRIMARY KEY (tid, item)
    );

Beside it sit ``applied_appends`` (the exactly-once append markers) and
the one-row ``store_meta``, which persists the content fingerprint's
digest sum (see :meth:`SqliteStore.fingerprint`).

The store converts to/from the in-memory
:class:`~repro.core.transactions.TransactionDatabase` that the mining
algorithms consume.

Resilience: every SQL primitive goes through
:func:`repro.runtime.retry.retry_call`, so transient ``database is
locked`` errors are retried with exponential backoff before surfacing as
:class:`~repro.errors.TransientDatabaseError`.  Each primitive is safe to
retry because SQLite acquires its lock *before* applying any statement —
a locked ``executemany`` never half-applies.
"""

from __future__ import annotations

import hashlib
import sqlite3
import threading
import time
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.items import ItemCatalog
from repro.core.transactions import TransactionDatabase
from repro.errors import DatabaseError, SchemaError
from repro.runtime.retry import RetryPolicy, retry_call

if TYPE_CHECKING:
    from repro.columnar.encoded import EncodedDatabase
    from repro.planner.stats import StoreStats

_SCHEMA = """
CREATE TABLE IF NOT EXISTS transactions (
    tid   INTEGER NOT NULL,
    ts    TEXT    NOT NULL,
    item  TEXT    NOT NULL,
    PRIMARY KEY (tid, item)
);
CREATE INDEX IF NOT EXISTS idx_transactions_ts ON transactions (ts);
CREATE INDEX IF NOT EXISTS idx_transactions_item ON transactions (item);
CREATE TABLE IF NOT EXISTS applied_appends (
    append_id      TEXT PRIMARY KEY,
    applied_at     TEXT    NOT NULL,
    n_transactions INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS store_meta (
    id     INTEGER PRIMARY KEY CHECK (id = 0),
    fp_sum BLOB    NOT NULL,
    n_rows INTEGER NOT NULL,
    valid  INTEGER NOT NULL
);
-- A zero sum is right for an empty table; a file written before
-- store_meta existed starts untrusted and the first fingerprint() rebuilds.
INSERT OR IGNORE INTO store_meta (id, fp_sum, n_rows, valid)
    SELECT 0, zeroblob(32), 0, NOT EXISTS (SELECT 1 FROM transactions);
-- Deletes and updates the store did not make cannot be folded into the
-- sum; they mark it stale.  Foreign inserts are caught by n_rows.
CREATE TRIGGER IF NOT EXISTS store_meta_stale_on_delete
    AFTER DELETE ON transactions WHEN (SELECT valid FROM store_meta)
    BEGIN UPDATE store_meta SET valid = 0; END;
CREATE TRIGGER IF NOT EXISTS store_meta_stale_on_update
    AFTER UPDATE ON transactions WHEN (SELECT valid FROM store_meta)
    BEGIN UPDATE store_meta SET valid = 0; END;
"""

_INSERT_ROW = "INSERT INTO transactions (tid, ts, item) VALUES (?, ?, ?)"
_WRITE_META = "REPLACE INTO store_meta (id, fp_sum, n_rows, valid) VALUES (0, ?, ?, 1)"

#: The digest sum lives in Z/2**256: wide enough that no two row sets a
#: store will ever hold collide by accident.
_MODULUS = 1 << 256


def _digest_rows(rows: Iterable[Sequence[Any]]) -> Tuple[int, int]:
    """``(sum of the rows' SHA-256 digests mod 2**256, row count)``.

    Each ``(tid, ts, item)`` row digests as an integer over the text
    SQLite stores, so a sum built from inserted rows equals one rebuilt
    from a scan of them, in any order.
    """
    sha256, from_bytes = hashlib.sha256, int.from_bytes  # hot loop: bind once
    total = count = 0
    for tid, ts, item in rows:
        total += from_bytes(sha256(f"{tid}\x1f{ts}\x1f{item}".encode()).digest(), "big")
        count += 1
    return total % _MODULUS, count


def _fingerprint_of(fp_sum: int, n_rows: int) -> str:
    """The fingerprint of a content whose digest sum and size are given."""
    return hashlib.sha256(
        b"repro-fp-v2" + fp_sum.to_bytes(32, "big") + n_rows.to_bytes(8, "big")
    ).hexdigest()


def _parse_stamp(tid: int, text: str) -> datetime:
    try:
        return datetime.fromisoformat(text)
    except (TypeError, ValueError) as error:
        raise DatabaseError(
            f"transaction {tid} has a malformed timestamp {text!r}: {error}"
        ) from error


def _baskets(rows: Iterable[Sequence[Any]]) -> Iterator[Tuple[int, datetime, List[str]]]:
    """Group ``(tid, ts, item)`` rows, adjacent per tid, into baskets."""
    current: Optional[Tuple[int, datetime]] = None
    labels: List[str] = []
    for tid, stamp_text, item in rows:
        if current is None or tid != current[0]:
            if current is not None:
                yield current[0], current[1], labels
            current = (tid, _parse_stamp(tid, stamp_text))
            labels = []
        labels.append(item)
    if current is not None:
        yield current[0], current[1], labels


@dataclass(frozen=True)
class AppendOutcome:
    """Result of one :meth:`SqliteStore.append_batch` call.

    Attributes:
        applied: ``False`` when the batch's ``append_id`` was already
            applied (the exactly-once dedupe), ``True`` otherwise.
        count: transactions written by *this* call (0 on a duplicate).
        tids: the tids assigned/used, in batch order (empty on a
            duplicate).
        old_fingerprint: the store's fingerprint just before the batch.
        new_fingerprint: the fingerprint the batch's commit produced.
            Both are read inside the append's own transaction, so no
            concurrent append can fall between them; they are equal
            when nothing was written.
    """

    applied: bool
    count: int
    tids: Tuple[int, ...]
    old_fingerprint: str
    new_fingerprint: str


class SqliteStore:
    """A persistent transaction store over SQLite.

    Usable as a context manager; ``":memory:"`` gives an ephemeral store.
    File-backed stores run in WAL mode with a ``busy_timeout`` so
    concurrent readers do not starve writers; ``close()`` is idempotent
    and safe to call even when ``__init__`` failed mid-way.

    Thread safety: one store holds **one** connection, shared across
    threads and serialized by an internal :class:`threading.RLock` (the
    documented lock the threaded mining service relies on).  Every SQL
    primitive — including cursor *iteration*, which is the dangerous
    part of cross-thread connection reuse — runs while holding
    :attr:`lock`, so concurrent readers and writers can never interleave
    half-consumed cursors on the shared connection.  Callers composing
    multiple primitives into one atomic step (e.g. mutate-then-commit)
    should take ``with store.lock: ...`` themselves; the lock is
    re-entrant.

    >>> store = SqliteStore(":memory:")
    >>> store.insert_transaction(datetime(2026, 1, 1), ["bread", "milk"])
    1
    >>> store.count_transactions()
    1
    """

    def __init__(
        self,
        path: Union[str, Path] = ":memory:",
        busy_timeout_ms: int = 5000,
        retry_policy: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.path = str(path)
        # Set before any fallible work so close() is safe after a failed
        # construction (satellite: no AttributeError from __del__/with).
        self._connection: Optional[sqlite3.Connection] = None
        self._lock = threading.RLock()
        # The fingerprint memo and the change key it is valid for.
        self._fingerprint_cache: Optional[str] = None
        self._fingerprint_key: Optional[Tuple[int, int]] = None
        # Planner statistics, keyed by the fingerprint they describe.
        self._stats_cache: Optional["StoreStats"] = None
        self._stats_fingerprint: Optional[str] = None
        # count_transactions(), memoized the same way.
        self._count_cache = 0
        self._count_fingerprint: Optional[str] = None
        self._retry_policy = retry_policy or RetryPolicy()
        self._sleep = sleep
        # Per-thread retry deadline: the service sets this from the
        # running job's RunBudget so backoff sleeps against a contended
        # store can never overshoot the budget (thread-local because the
        # store is shared across worker threads with distinct budgets).
        self._retry_deadlines = threading.local()
        try:
            # check_same_thread=False: the connection is shared across the
            # service's worker threads; every access is serialized by
            # self._lock (see the class docstring).
            self._connection = sqlite3.connect(
                self.path, check_same_thread=False
            )
        except sqlite3.Error as error:
            raise DatabaseError(f"cannot open {self.path!r}: {error}") from error
        self._connection.execute(f"PRAGMA busy_timeout = {int(busy_timeout_ms)}")
        # The delete half of a REPLACE fires delete triggers only with
        # recursive triggers on; store_meta's staleness mark needs it.
        self._connection.execute("PRAGMA recursive_triggers = ON")
        if self.path != ":memory:":
            # WAL lets readers proceed during a write; NORMAL sync is the
            # standard pairing (durability still survives app crashes).
            self._connection.execute("PRAGMA journal_mode = WAL")
            self._connection.execute("PRAGMA synchronous = NORMAL")
        self._executescript(_SCHEMA)
        self._commit()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the connection; safe to call repeatedly.

        Also safe on a store whose construction failed before the lock
        existed — the idempotence contract predates the lock.
        """
        lock = getattr(self, "_lock", None)
        if lock is None:
            connection = getattr(self, "_connection", None)
            self._connection = None
            if connection is not None:
                connection.close()
            return
        with lock:
            if self._connection is None:
                return
            try:
                self._connection.close()
            finally:
                self._connection = None

    def __enter__(self) -> "SqliteStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def connection(self) -> sqlite3.Connection:
        """The raw connection (used by the ad-hoc query function).

        Callers touching it directly from more than one thread must hold
        :attr:`lock` around the execute *and* the fetch.
        """
        if self._connection is None:
            raise DatabaseError(f"store {self.path!r} is closed")
        return self._connection

    @property
    def lock(self) -> threading.RLock:
        """The re-entrant lock serializing all access to the connection."""
        return self._lock

    # ------------------------------------------------------------------
    # retry-wrapped SQL primitives
    # ------------------------------------------------------------------

    def set_retry_deadline(self, deadline: Optional[float]) -> None:
        """Bound this thread's retry backoff by an absolute deadline.

        ``deadline`` is on ``time.monotonic`` (pass
        ``time.monotonic() + budget.max_seconds``, or
        :attr:`RunMonitor.deadline
        <repro.runtime.budget.RunMonitor.deadline>`); ``None`` clears
        the bound.  Only this thread's subsequent operations are
        affected.
        """
        self._retry_deadlines.value = deadline

    def retry_deadline(self) -> Optional[float]:
        """This thread's current retry deadline (``None`` = unbounded)."""
        return getattr(self._retry_deadlines, "value", None)

    def _retry(self, operation: Callable[[], Any], describe: str) -> Any:
        return retry_call(
            operation,
            policy=self._retry_policy,
            sleep=self._sleep,
            describe=describe,
            deadline=self.retry_deadline(),
        )

    def _execute(self, sql: str, parameters: Sequence[object] = ()) -> sqlite3.Cursor:
        with self._lock:
            connection = self.connection
            return self._retry(
                lambda: connection.execute(sql, tuple(parameters)), f"execute: {sql}"
            )

    def _executemany(
        self, sql: str, rows: Sequence[Sequence[object]]
    ) -> sqlite3.Cursor:
        with self._lock:
            connection = self.connection
            return self._retry(
                lambda: connection.executemany(sql, rows), f"executemany: {sql}"
            )

    def _executescript(self, script: str) -> None:
        with self._lock:
            connection = self.connection
            self._retry(lambda: connection.executescript(script), "executescript")

    def _commit(self) -> None:
        with self._lock:
            connection = self.connection
            self._retry(connection.commit, "commit")

    def fetch_all(
        self, sql: str, parameters: Sequence[object] = ()
    ) -> Tuple[Tuple[str, ...], Tuple[Tuple[Any, ...], ...]]:
        """Execute and fully fetch one query under the store lock.

        The thread-safe read primitive: the cursor is drained before the
        lock is released, so no other thread can interleave statements
        into a half-consumed cursor.  Returns ``(columns, rows)``.
        """
        with self._lock:
            cursor = self._execute(sql, parameters)
            columns = tuple(d[0] for d in cursor.description or ())
            return columns, tuple(tuple(row) for row in cursor.fetchall())

    # ------------------------------------------------------------------
    # the persisted fingerprint
    # ------------------------------------------------------------------

    def _change_key(self) -> Tuple[int, int]:
        """What the fingerprint memo is valid for.

        ``PRAGMA data_version`` moves on every commit by another
        connection, :attr:`sqlite3.Connection.total_changes` on every row
        this connection changes.  Inside a write transaction neither
        moves again at the commit, so a key read just before committing
        is the committed state's.  Callers hold :attr:`lock`.
        """
        connection = self.connection
        row = self._retry(
            lambda: connection.execute("PRAGMA data_version").fetchone(),
            "execute: PRAGMA data_version",
        )
        return int(row[0]), connection.total_changes

    def _trusted_meta(self, count: bool = True) -> Optional[Tuple[int, int]]:
        """``store_meta``'s ``(sum, rows)`` if it describes the table.

        Trusted means marked valid (no foreign delete or update since it
        was written) and, unless ``count`` is off, sized right (no
        foreign insert).
        """
        meta = self._execute(
            "SELECT fp_sum, n_rows, valid FROM store_meta WHERE id = 0"
        ).fetchone()
        if meta is None or not meta[2]:
            return None
        if count:
            rows = self._execute("SELECT COUNT(*) FROM transactions").fetchone()[0]
            if meta[1] != rows:
                return None
        return int.from_bytes(meta[0], "big"), int(meta[1])

    def _scan(self) -> Tuple[int, int]:
        """Digest sum and size of the table, from one unsorted pass."""
        return _digest_rows(self._execute("SELECT tid, ts, item FROM transactions"))

    def _commit_state(self, state: Tuple[int, int]) -> str:
        """Persist ``(sum, rows)`` as trusted, commit, memoize; the fingerprint."""
        self._execute(_WRITE_META, (state[0].to_bytes(32, "big"), state[1]))
        fingerprint = _fingerprint_of(*state)
        key = self._change_key()
        self._commit()
        self._fingerprint_cache, self._fingerprint_key = fingerprint, key
        return fingerprint

    def _insert_rows(
        self,
        rows: Sequence[Tuple[int, str, str]],
        marker: Optional[Tuple[str, str, int]] = None,
    ) -> Tuple[str, str]:
        """Insert rows and their digests in one transaction; commit it.

        Every write the store makes goes through here, so the persisted
        digest sum moves with the rows it describes.  ``marker`` is an
        ``applied_appends`` row committed alongside.  Returns the old and
        new fingerprints, both read under SQLite's write lock.  A key
        conflict rolls everything back and raises :class:`DatabaseError`.
        """
        if not rows:
            current = self.fingerprint()
            return current, current
        added, _ = _digest_rows(rows)
        with self._lock:
            connection = self.connection
            changes = connection.total_changes
            try:
                # The write lock first, so the sum read next cannot move
                # under a peer process's append (an open transaction of
                # this connection's own is joined, as a bare INSERT would).
                if not connection.in_transaction:
                    self._execute("BEGIN IMMEDIATE")
                # When nothing moved since the memo was taken, the meta is
                # what it described and the O(n) row count can be skipped.
                unmoved = self._fingerprint_cache is not None and self._fingerprint_key == (
                    self._change_key()[0],
                    changes,
                )
                old = self._trusted_meta(count=not unmoved) or self._scan()
                self._executemany(_INSERT_ROW, rows)
                if marker is not None:
                    self._execute(
                        "INSERT INTO applied_appends "
                        "(append_id, applied_at, n_transactions) VALUES (?, ?, ?)",
                        marker,
                    )
                new = self._commit_state(((old[0] + added) % _MODULUS, old[1] + len(rows)))
                return _fingerprint_of(*old), new
            except sqlite3.IntegrityError as error:
                connection.rollback()
                raise DatabaseError(
                    f"rows conflict with the store's existing rows: {error}"
                ) from error
            except BaseException:
                connection.rollback()
                raise

    def fingerprint(self) -> str:
        """A content digest of the store — the dataset half of a cache key.

        An order-independent multiset hash: each ``(tid, ts, item)`` row
        digests to ``int(SHA-256("{tid}\\x1f{ts}\\x1f{item}"))`` over the
        stored text, the digests sum modulo 2**256, and the fingerprint
        is the SHA-256 of that sum and the row count.  Two stores holding
        the same rows produce the same fingerprint regardless of
        insertion history (content addressing, not version counting).

        The sum is persisted in ``store_meta`` and every insert the store
        makes adds to it in the rows' own transaction, so an append costs
        O(batch).  Reads cost:

        * nothing new while ``(PRAGMA data_version, total_changes)`` is
          what it was after the store's own last write or check (the
          memo);
        * a ``store_meta`` read and a ``COUNT(*)`` after any other
          change — the sum is trusted when marked valid (the delete and
          update triggers clear the mark) and its row count matches
          (which catches inserts the store did not make);
        * one unsorted scan, persisted under ``BEGIN IMMEDIATE``, when it
          is not trusted.  Inside an open transaction the scan answers
          alone: uncommitted rows are neither persisted nor memoized.
        """
        with self._lock:
            connection = self.connection
            key = self._change_key()
            if self._fingerprint_cache is not None and self._fingerprint_key == key:
                return self._fingerprint_cache
            if connection.in_transaction:
                return _fingerprint_of(*self._scan())
            state = self._trusted_meta()
            if state is not None:
                fingerprint = _fingerprint_of(*state)
                self._fingerprint_cache, self._fingerprint_key = fingerprint, key
                return fingerprint
            self._execute("BEGIN IMMEDIATE")
            try:
                return self._commit_state(self._trusted_meta() or self._scan())
            except BaseException:
                connection.rollback()
                raise

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def next_tid(self) -> int:
        row = self._execute("SELECT MAX(tid) FROM transactions").fetchone()
        return (row[0] or 0) + 1

    def insert_transaction(
        self,
        timestamp: datetime,
        items: Iterable[str],
        tid: Optional[int] = None,
    ) -> int:
        """Insert one transaction; returns its tid."""
        labels = sorted(set(items))
        if not labels:
            raise DatabaseError("cannot insert an empty transaction")
        with self._lock:
            if tid is None:
                tid = self.next_tid()
            stamp = timestamp.isoformat()
            self._insert_rows([(tid, stamp, label) for label in labels])
        return tid

    def insert_many(
        self, transactions: Iterable[Tuple[datetime, Sequence[str]]]
    ) -> int:
        """Bulk insert; returns the number of transactions inserted."""
        tid = self.next_tid()
        rows: List[Tuple[int, str, str]] = []
        count = 0
        for timestamp, items in transactions:
            labels = sorted(set(items))
            if not labels:
                continue
            rows.extend((tid, timestamp.isoformat(), label) for label in labels)
            tid += 1
            count += 1
        self._insert_rows(rows)
        return count

    def append_batch(
        self,
        transactions: Iterable[
            Union[
                Tuple[datetime, Sequence[str]],
                Tuple[datetime, Sequence[str], Optional[int]],
            ]
        ],
        append_id: Optional[str] = None,
    ) -> AppendOutcome:
        """Append a batch of transactions atomically, exactly once.

        ``transactions`` holds ``(timestamp, items)`` or
        ``(timestamp, items, tid)`` entries (``tid=None`` auto-assigns
        sequentially from :meth:`next_tid`).  When ``append_id`` is
        given, a marker row in ``applied_appends`` is written **in the
        same SQLite transaction** as the data rows, so a crash-replay of
        the same batch (see the durability journal) is a no-op: either
        the original commit landed — marker present, replay skipped — or
        it did not, and the replay applies it for the first time.  An
        empty batch is a complete no-op (no marker, no commit).

        The outcome carries the fingerprints either side of the batch,
        read inside its transaction: the transition a delta chain can
        record without a concurrent append slipping in between.
        """
        batch: List[Sequence[Any]] = list(transactions)
        with self._lock:
            duplicate = append_id is not None and self._execute(
                "SELECT 1 FROM applied_appends WHERE append_id = ?", (append_id,)
            ).fetchone() is not None
            if duplicate or not batch:
                current = self.fingerprint()
                return AppendOutcome(
                    applied=not duplicate,
                    count=0,
                    tids=(),
                    old_fingerprint=current,
                    new_fingerprint=current,
                )
            next_tid = self.next_tid()
            rows: List[Tuple[int, str, str]] = []
            tids: List[int] = []
            for entry in batch:
                timestamp, items = entry[0], entry[1]
                tid = entry[2] if len(entry) > 2 else None
                labels = sorted(set(items))
                if not labels:
                    raise DatabaseError("cannot append an empty transaction")
                if tid is None:
                    tid = next_tid
                next_tid = max(next_tid, tid + 1)
                tids.append(int(tid))
                rows.extend(
                    (int(tid), timestamp.isoformat(), label) for label in labels
                )
            marker = None
            if append_id is not None:
                marker = (append_id, datetime.now().isoformat(), len(tids))
            old, new = self._insert_rows(rows, marker)
        return AppendOutcome(
            applied=True,
            count=len(tids),
            tids=tuple(tids),
            old_fingerprint=old,
            new_fingerprint=new,
        )

    def save_database(self, database: TransactionDatabase, replace: bool = False) -> int:
        """Persist an in-memory database; returns transactions written."""
        if replace:
            self.clear()
        catalog = database.catalog
        rows: List[Tuple[int, str, str]] = []
        for transaction in database:
            stamp = transaction.timestamp.isoformat()
            for item in transaction.items:
                rows.append((transaction.tid, stamp, catalog.label(item)))
        self._insert_rows(rows)
        return len(database)

    def clear(self) -> None:
        """Delete every transaction (and the applied-append markers —
        a cleared store has no append history to dedupe against)."""
        with self._lock:
            self._execute("DELETE FROM transactions")
            self._execute("DELETE FROM applied_appends")
            self._commit_state((0, 0))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def count_transactions(self) -> int:
        """Distinct transactions, memoized against :meth:`fingerprint`.

        ``GET /v1/status`` reports this on every health probe; the memo
        turns an O(n) ``COUNT(DISTINCT tid)`` into the fingerprint's
        O(1) check while nothing was written.
        """
        with self._lock:
            if self.connection.in_transaction:
                # Uncommitted rows: count them, memoize nothing.
                return self._count_distinct_tids()
            fingerprint = self.fingerprint()
            if self._count_fingerprint != fingerprint:
                self._count_cache = self._count_distinct_tids()
                self._count_fingerprint = fingerprint
            return self._count_cache

    def _count_distinct_tids(self) -> int:
        row = self._execute("SELECT COUNT(DISTINCT tid) FROM transactions").fetchone()
        return int(row[0])

    def count_items(self) -> int:
        row = self._execute("SELECT COUNT(DISTINCT item) FROM transactions").fetchone()
        return int(row[0])

    def time_span(self) -> Optional[Tuple[datetime, datetime]]:
        row = self._execute("SELECT MIN(ts), MAX(ts) FROM transactions").fetchone()
        if row[0] is None:
            return None
        return datetime.fromisoformat(row[0]), datetime.fromisoformat(row[1])

    def stats(self) -> "StoreStats":
        """Planner statistics of the store, as a ``StoreStats``.

        One aggregate query, memoized against :meth:`fingerprint`: the
        planner can never pair fresh content addressing with stale
        statistics.
        """
        from repro.planner.stats import StoreStats

        with self._lock:
            fingerprint = self.fingerprint()
            if self._stats_cache is not None and self._stats_fingerprint == fingerprint:
                return self._stats_cache
            row = self._execute(
                "SELECT COUNT(DISTINCT tid), COUNT(DISTINCT item), COUNT(*), "
                "MIN(ts), MAX(ts) FROM transactions"
            ).fetchone()
            first = datetime.fromisoformat(row[3]) if row[3] is not None else None
            last = datetime.fromisoformat(row[4]) if row[4] is not None else None
            stats = StoreStats(
                n_transactions=int(row[0]),
                n_items=int(row[1]),
                n_occurrences=int(row[2]),
                first_timestamp=first,
                last_timestamp=last,
            )
            self._stats_cache, self._stats_fingerprint = stats, fingerprint
            return stats

    def _fetch_rows(self, where: str, parameters: Sequence[object]) -> List[Any]:
        """``(tid, ts, item)`` rows in ``(ts, tid)`` order, optionally filtered."""
        sql = "SELECT tid, ts, item FROM transactions"
        if where:
            sql += f" WHERE {where}"
        sql += " ORDER BY ts, tid"
        try:
            # Drain the cursor under the lock: iterating a cursor while
            # another thread executes on the shared connection is the
            # classic cross-thread corruption path.
            with self._lock:
                return self._execute(sql, tuple(parameters)).fetchall()
        except sqlite3.Error as error:
            raise DatabaseError(f"load query failed: {error}") from error

    def load_database(
        self,
        where: str = "",
        parameters: Sequence[object] = (),
        catalog: Optional[ItemCatalog] = None,
    ) -> TransactionDatabase:
        """Load (a filtered view of) the store into memory for mining.

        Args:
            where: optional SQL ``WHERE`` body over columns
                ``tid``/``ts``/``item`` (e.g. ``"ts >= ?"``); applied per
                item row, after which complete transactions are rebuilt.
            parameters: bound parameters for ``where``.
            catalog: optional shared catalog (labels register on load).
        """
        database = TransactionDatabase(catalog=catalog)
        for tid, stamp, labels in _baskets(self._fetch_rows(where, parameters)):
            database.add(stamp, labels, tid=tid)
        return database

    def load_encoded(
        self,
        where: str = "",
        parameters: Sequence[object] = (),
        catalog: Optional[ItemCatalog] = None,
    ) -> "EncodedDatabase":
        """Load straight into the columnar layout — the fast mining path.

        Same filtering semantics as :meth:`load_database`, but rows are
        grouped directly into the CSR arrays of an
        :class:`~repro.columnar.encoded.EncodedDatabase` without ever
        materializing per-transaction Python objects — the IO-side half
        of the columnar refactor.
        """
        from repro.columnar.encoded import EncodedDatabase

        rows = self._fetch_rows(where, parameters)
        catalog = catalog if catalog is not None else ItemCatalog()
        add = catalog.add
        return EncodedDatabase.from_baskets(
            (
                (tid, stamp, [add(label) for label in labels])
                for tid, stamp, labels in _baskets(rows)
            ),
            catalog=catalog,
        )


def load_csv(
    store: SqliteStore,
    path: Union[str, Path],
    timestamp_column: str = "ts",
    tid_column: str = "tid",
    item_column: str = "item",
    delimiter: str = ",",
) -> int:
    """Load a long-format CSV (tid, ts, item) into a store.

    Returns the number of distinct transactions loaded.  Raises
    :class:`SchemaError` when the header lacks the expected columns.
    """
    import csv

    grouped: Dict[int, Tuple[datetime, List[str]]] = {}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle, delimiter=delimiter)
        header = reader.fieldnames or []
        for column in (timestamp_column, tid_column, item_column):
            if column not in header:
                raise SchemaError(
                    f"CSV {path} lacks column {column!r}; found {header}"
                )
        for row in reader:
            tid = int(row[tid_column])
            stamp = datetime.fromisoformat(row[timestamp_column])
            entry = grouped.get(tid)
            if entry is None:
                grouped[tid] = (stamp, [row[item_column]])
            else:
                entry[1].append(row[item_column])
    rows = [
        (tid, stamp.isoformat(), item)
        for tid, (stamp, items) in sorted(grouped.items())
        for item in sorted(set(items))
    ]
    store._insert_rows(rows)
    return len(grouped)
