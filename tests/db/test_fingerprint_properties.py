"""Property tests for the store's persisted multiset fingerprint.

The fingerprint is a sum of per-row SHA-256 digests kept in
``store_meta`` and moved by the store's own writes in their own
transactions; everything else (TML mutations, raw connection writes,
a second handle on the same file, an old store file) must be caught by
the staleness triggers or the row count.  The contract pinned here:

* after every step of a random schedule over two handles on one file,
  both handles' ``fingerprint()`` equal a from-scratch recompute of the
  committed rows, written in this file from the definition alone;
* the fingerprints an append reports either side of itself are the
  recomputes of the content before and after it;
* two histories that reach equal content give equal fingerprints;
* a store file written with the schema that predates ``store_meta``
  gives the from-scratch value on first open.
"""

import hashlib
import os
import shutil
import sqlite3
import tempfile
from datetime import datetime, timedelta

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.transactions import TransactionDatabase
from repro.db.query import run_mutation
from repro.db.sqlite_store import SqliteStore
from repro.errors import DatabaseError

_BASE = datetime(2025, 1, 1)
_ITEMS = ("a", "b", "c", "d", "e")


def expected_fingerprint(rows) -> str:
    """The fingerprint of a row multiset, straight from its definition."""
    total = 0
    count = 0
    for tid, ts, item in rows:
        digest = hashlib.sha256(f"{tid}\x1f{ts}\x1f{item}".encode("utf-8")).digest()
        total = (total + int.from_bytes(digest, "big")) % (1 << 256)
        count += 1
    return hashlib.sha256(
        b"repro-fp-v2" + total.to_bytes(32, "big") + count.to_bytes(8, "big")
    ).hexdigest()


def committed_fingerprint(path: str) -> str:
    """The recompute over what is committed to the file, via a new connection."""
    connection = sqlite3.connect(path)
    try:
        return expected_fingerprint(
            connection.execute("SELECT tid, ts, item FROM transactions")
        )
    finally:
        connection.close()


stamps = st.integers(min_value=0, max_value=24 * 40).map(
    lambda hours: _BASE + timedelta(hours=hours)
)
baskets = st.lists(st.sampled_from(_ITEMS), min_size=1, max_size=4)
tids = st.integers(min_value=1, max_value=30)
handles = st.integers(min_value=0, max_value=1)
append_batches = st.lists(
    st.tuples(stamps, baskets, st.one_of(st.none(), tids)), max_size=4
)


class FingerprintMachine(RuleBasedStateMachine):
    """Random writes through two handles; fingerprints checked every step."""

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="fingerprint-")
        self.path = os.path.join(self.directory, "store.db")
        self.stores = [SqliteStore(self.path), SqliteStore(self.path)]

    def teardown(self):
        for store in self.stores:
            store.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    @rule(
        which=handles,
        batch=append_batches,
        append_id=st.one_of(st.none(), st.sampled_from(("k1", "k2", "k3"))),
    )
    def append_batch(self, which, batch, append_id):
        self.checked_append(which, batch, append_id)

    @rule(
        writer=handles,
        which=handles,
        tid=tids,
        stamp=stamps,
        item=st.sampled_from(_ITEMS),
        batch=append_batches,
    )
    def foreign_insert_then_append(self, writer, which, tid, stamp, item, batch):
        """No fingerprint read between a write the store did not make and
        an append: the append itself must find the persisted sum stale."""
        store = self.stores[writer]
        with store.lock:
            store.connection.execute(
                "INSERT OR IGNORE INTO transactions (tid, ts, item) VALUES (?, ?, ?)",
                (tid, stamp.isoformat(), item),
            )
            store.connection.commit()
        self.checked_append(which, batch, None)

    def checked_append(self, which, batch, append_id):
        before = committed_fingerprint(self.path)
        try:
            outcome = self.stores[which].append_batch(batch, append_id=append_id)
        except DatabaseError:
            # An explicit tid collided: the whole batch rolled back.
            assert committed_fingerprint(self.path) == before
            return
        assert outcome.old_fingerprint == before
        assert outcome.new_fingerprint == committed_fingerprint(self.path)
        if not outcome.count:
            assert outcome.new_fingerprint == outcome.old_fingerprint

    @rule(which=handles, stamp=stamps, basket=baskets)
    def insert_transaction(self, which, stamp, basket):
        self.stores[which].insert_transaction(stamp, basket)

    @rule(which=handles, entries=st.lists(st.tuples(stamps, baskets), max_size=4))
    def save_database(self, which, entries):
        store = self.stores[which]
        database = TransactionDatabase()
        first = store.next_tid()
        for offset, (stamp, basket) in enumerate(entries):
            database.add(stamp, basket, tid=first + offset)
        store.save_database(database)

    @rule(which=handles, tid=tids, stamp=stamps, item=st.sampled_from(_ITEMS))
    def tml_insert(self, which, tid, stamp, item):
        run_mutation(
            self.stores[which],
            "INSERT OR IGNORE INTO transactions (tid, ts, item) VALUES (?, ?, ?)",
            (tid, stamp.isoformat(), item),
        )

    @rule(which=handles, tid=tids, stamp=stamps)
    def tml_update(self, which, tid, stamp):
        run_mutation(
            self.stores[which],
            "UPDATE transactions SET ts = ? WHERE tid = ?",
            (stamp.isoformat(), tid),
        )

    @rule(which=handles, tid=tids)
    def tml_delete(self, which, tid):
        run_mutation(self.stores[which], "DELETE FROM transactions WHERE tid = ?", (tid,))

    @rule(which=handles, tid=tids, stamp=stamps, item=st.sampled_from(_ITEMS))
    def tml_replace(self, which, tid, stamp, item):
        # On a (tid, item) collision this deletes the old row first.
        run_mutation(
            self.stores[which],
            "REPLACE INTO transactions (tid, ts, item) VALUES (?, ?, ?)",
            (tid, stamp.isoformat(), item),
        )

    @rule(which=handles, item=st.sampled_from(_ITEMS), stamp=stamps)
    def raw_connection_write(self, which, item, stamp):
        store = self.stores[which]
        with store.lock:
            store.connection.execute(
                "UPDATE transactions SET ts = ? WHERE item = ?", (stamp.isoformat(), item)
            )
            store.connection.execute(
                "INSERT OR IGNORE INTO transactions (tid, ts, item) VALUES (?, ?, ?)",
                (99, stamp.isoformat(), item),
            )
            store.connection.commit()

    @rule(which=handles, tid=tids)
    def uncommitted_raw_delete(self, which, tid):
        """Inside an open transaction the answer is this connection's view;
        after the rollback it is the committed content's again."""
        store = self.stores[which]
        with store.lock:
            store.connection.execute("DELETE FROM transactions WHERE tid = ?", (tid,))
            own_view = expected_fingerprint(
                store.connection.execute("SELECT tid, ts, item FROM transactions")
            )
            assert store.fingerprint() == own_view
            store.connection.rollback()

    @rule(which=handles)
    def clear(self, which):
        self.stores[which].clear()

    @rule(which=handles)
    def reopen(self, which):
        self.stores[which].close()
        self.stores[which] = SqliteStore(self.path)

    @invariant()
    def both_handles_match_a_recompute(self):
        expected = committed_fingerprint(self.path)
        for store in self.stores:
            assert store.fingerprint() == expected


FingerprintMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None
)
TestFingerprintSchedules = FingerprintMachine.TestCase


@settings(max_examples=40, deadline=None)
@given(
    entries=st.lists(st.tuples(stamps, baskets), min_size=1, max_size=12),
    noise=st.lists(st.tuples(stamps, baskets), min_size=1, max_size=4),
)
def test_histories_reaching_equal_content_agree(entries, noise):
    """One bulk save vs. noise inserted and deleted, then appends in
    reverse order: equal rows, equal fingerprints."""
    database = TransactionDatabase()
    for tid, (stamp, basket) in enumerate(entries, start=1):
        database.add(stamp, basket, tid=tid)
    with SqliteStore(":memory:") as bulk, SqliteStore(":memory:") as winding:
        bulk.save_database(database)
        winding.append_batch(
            [(stamp, basket, 1000 + n) for n, (stamp, basket) in enumerate(noise)]
        )
        run_mutation(winding, "DELETE FROM transactions WHERE tid >= 1000")
        for tid, (stamp, basket) in reversed(list(enumerate(entries, start=1))):
            winding.append_batch([(stamp, basket, tid)])
        assert bulk.fingerprint() == winding.fingerprint()
        assert bulk.fingerprint() == expected_fingerprint(
            winding.connection.execute("SELECT tid, ts, item FROM transactions")
        )


#: The store schema as it was before ``store_meta`` existed.
_SCHEMA_WITHOUT_META = """
CREATE TABLE transactions (
    tid   INTEGER NOT NULL,
    ts    TEXT    NOT NULL,
    item  TEXT    NOT NULL,
    PRIMARY KEY (tid, item)
);
CREATE INDEX idx_transactions_ts ON transactions (ts);
CREATE INDEX idx_transactions_item ON transactions (item);
CREATE TABLE applied_appends (
    append_id      TEXT PRIMARY KEY,
    applied_at     TEXT    NOT NULL,
    n_transactions INTEGER NOT NULL
);
"""


@settings(max_examples=20, deadline=None)
@given(entries=st.lists(st.tuples(stamps, baskets), min_size=0, max_size=8))
def test_store_file_without_meta_migrates_on_first_open(entries):
    directory = tempfile.mkdtemp(prefix="fingerprint-migrate-")
    path = os.path.join(directory, "old.db")
    try:
        connection = sqlite3.connect(path)
        connection.executescript(_SCHEMA_WITHOUT_META)
        connection.executemany(
            "INSERT INTO transactions (tid, ts, item) VALUES (?, ?, ?)",
            [
                (tid, stamp.isoformat(), item)
                for tid, (stamp, basket) in enumerate(entries, start=1)
                for item in sorted(set(basket))
            ],
        )
        connection.commit()
        connection.close()
        with SqliteStore(path) as store:
            assert store.fingerprint() == committed_fingerprint(path)
            outcome = store.append_batch([(_BASE, ["a", "z"])])
            assert outcome.new_fingerprint == committed_fingerprint(path)
            assert store.fingerprint() == outcome.new_fingerprint
        with SqliteStore(path) as reopened:
            assert reopened.fingerprint() == committed_fingerprint(path)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
