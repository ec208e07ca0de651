"""Timestamped transactions and the in-memory transaction database.

A :class:`Transaction` is a set of items plus a timestamp — the temporal
component that the ICDE 2000 paper observes "is usually attached to
transactions in databases" and that traditional association mining
overlooks.  Timestamps are ordinary :class:`datetime.datetime` values.

:class:`TransactionDatabase` is the library's construction API; mining
scans its columnar form (:meth:`TransactionDatabase.encoded`), which the
serving path loads from the store directly, never building these objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.items import Item, ItemCatalog, Itemset
from repro.errors import TransactionError


def check_basket(items: Iterable[object]) -> List[Union[str, Item]]:
    """One basket's elements; raises unless each is an item id or a label."""
    elements: List[Union[str, Item]] = []
    for element in items:
        if not isinstance(element, (str, int)):
            raise TransactionError(f"cannot interpret {element!r} as an item")
        elements.append(element)
    return elements


def basket_ids(items: Iterable[object], catalog: ItemCatalog) -> List[Item]:
    """The ids of one basket of ids or labels; labels register on first use."""
    return [
        catalog.add(element) if isinstance(element, str) else element
        for element in check_basket(items)
    ]


@dataclass(frozen=True)
class Transaction:
    """One market-basket transaction with its valid-time instant.

    Attributes:
        tid: unique transaction identifier.
        timestamp: the instant the transaction occurred.
        items: the purchased itemset.
    """

    # Every environment mirroring a store holds one object per
    # transaction, and a stream of appends keeps adding them: no __dict__.
    __slots__ = ("tid", "timestamp", "items")

    tid: int
    timestamp: datetime
    items: Itemset

    def __reduce__(self):
        # Rebuild through __init__: copy and pickle would otherwise set
        # the slots one by one, which a frozen dataclass refuses.
        return Transaction, (self.tid, self.timestamp, self.items)

    def __post_init__(self) -> None:
        if not isinstance(self.timestamp, datetime):
            raise TransactionError(
                f"transaction {self.tid}: timestamp must be datetime, "
                f"got {type(self.timestamp).__name__}"
            )

    def contains(self, itemset: Itemset) -> bool:
        """True when this transaction supports ``itemset``."""
        return itemset.issubset(self.items)

    def __len__(self) -> int:
        return len(self.items)


class TransactionDatabase:
    """An ordered collection of timestamped transactions.

    Transactions are kept sorted by timestamp (then tid), which the
    temporal partitioner exploits to slice unit sub-databases with binary
    search instead of a full scan.

    >>> from datetime import datetime
    >>> db = TransactionDatabase()
    >>> _ = db.add(datetime(2026, 1, 1), [1, 2, 3])
    >>> _ = db.add(datetime(2026, 1, 2), [1, 3])
    >>> len(db)
    2
    >>> db.support_count(Itemset.of(1, 3))
    2
    """

    def __init__(
        self,
        transactions: Optional[Iterable[Transaction]] = None,
        catalog: Optional[ItemCatalog] = None,
    ):
        self._transactions: List[Transaction] = []
        self._catalog = catalog if catalog is not None else ItemCatalog()
        self._sorted = True
        self._next_tid = 0
        #: ``(len(catalog), columnar form)`` — see :meth:`encoded`; an
        #: append drops it.
        self._encoded_memo: Optional[Tuple[int, object]] = None
        if transactions is not None:
            for transaction in transactions:
                self.append(transaction)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @property
    def catalog(self) -> ItemCatalog:
        """The item catalog shared by all transactions in this database."""
        return self._catalog

    def append(self, transaction: Transaction) -> None:
        """Append an already-built :class:`Transaction`."""
        if self._transactions and transaction.timestamp < self._transactions[-1].timestamp:
            self._sorted = False
        self._transactions.append(transaction)
        self._next_tid = max(self._next_tid, transaction.tid + 1)
        self._encoded_memo = None

    def add(
        self,
        timestamp: datetime,
        items: Iterable[object],
        tid: Optional[int] = None,
    ) -> Transaction:
        """Create and append a transaction.

        ``items`` may be item ids or labels; labels are registered in the
        catalog on first use.
        """
        if tid is None:
            tid = self._next_tid
        transaction = Transaction(
            tid=tid, timestamp=timestamp, items=Itemset(basket_ids(items, self._catalog))
        )
        self.append(transaction)
        return transaction

    def extend(self, transactions: Iterable[Transaction]) -> None:
        for transaction in transactions:
            self.append(transaction)

    def encoded(self):
        """The columnar form of this database, encoded once per content.

        Returns the :class:`~repro.columnar.encoded.EncodedDatabase` of
        the current transactions, re-encoding only after an append or a
        catalog growth (which widens the dense item universe).  The
        result is shared between callers and must be treated as
        immutable, like every encoded database.
        """
        from repro.columnar.encoded import EncodedDatabase

        memo = self._encoded_memo
        if memo is None or memo[0] != len(self._catalog):
            memo = self._encoded_memo = (
                len(self._catalog),
                EncodedDatabase.from_database(self),
            )
        return memo[1]

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._transactions.sort(key=lambda t: (t.timestamp, t.tid))
            self._sorted = True

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._transactions)

    def __iter__(self) -> Iterator[Transaction]:
        self._ensure_sorted()
        return iter(self._transactions)

    def __getitem__(self, index: int) -> Transaction:
        self._ensure_sorted()
        return self._transactions[index]

    @property
    def transactions(self) -> Sequence[Transaction]:
        """All transactions sorted by (timestamp, tid)."""
        self._ensure_sorted()
        return tuple(self._transactions)

    def is_empty(self) -> bool:
        return not self._transactions

    def time_span(self) -> Tuple[datetime, datetime]:
        """(earliest, latest) timestamps; raises on an empty database."""
        if not self._transactions:
            raise TransactionError("time_span() on an empty database")
        self._ensure_sorted()
        return self._transactions[0].timestamp, self._transactions[-1].timestamp

    def items_universe(self) -> Itemset:
        """The union of all items appearing in any transaction."""
        seen: set = set()
        for transaction in self._transactions:
            seen.update(transaction.items)
        return Itemset(seen)

    def average_transaction_size(self) -> float:
        """Mean basket size (the 'T' in Quest dataset names)."""
        if not self._transactions:
            return 0.0
        return sum(len(t) for t in self._transactions) / len(self._transactions)

    # ------------------------------------------------------------------
    # counting and slicing
    # ------------------------------------------------------------------

    def support_count(self, itemset: Itemset) -> int:
        """Number of transactions containing ``itemset`` (absolute support)."""
        return sum(1 for t in self._transactions if t.contains(itemset))

    def support(self, itemset: Itemset) -> float:
        """Relative support in [0, 1]; 0.0 on an empty database."""
        if not self._transactions:
            return 0.0
        return self.support_count(itemset) / len(self._transactions)

    def restrict(
        self, predicate: Callable[[Transaction], bool]
    ) -> "TransactionDatabase":
        """A new database holding the transactions matching ``predicate``.

        The catalog is shared, so item ids remain comparable across the
        original and the slice.
        """
        sliced = TransactionDatabase(catalog=self._catalog)
        for transaction in self:
            if predicate(transaction):
                sliced.append(transaction)
        return sliced

    def between(self, start: datetime, end: datetime) -> "TransactionDatabase":
        """Transactions with ``start <= timestamp < end`` (half-open).

        Uses binary search over the sorted transaction list.
        """
        import bisect

        self._ensure_sorted()
        stamps = [t.timestamp for t in self._transactions]
        lo = bisect.bisect_left(stamps, start)
        hi = bisect.bisect_left(stamps, end)
        sliced = TransactionDatabase(catalog=self._catalog)
        for transaction in self._transactions[lo:hi]:
            sliced.append(transaction)
        return sliced

    def item_frequencies(self) -> Dict[Item, int]:
        """Absolute support of every single item."""
        counts: Dict[Item, int] = {}
        for transaction in self._transactions:
            for item in transaction.items:
                counts[item] = counts.get(item, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"TransactionDatabase(n={len(self._transactions)}, "
            f"items={len(self._catalog)})"
        )

    def summary(self) -> Dict[str, object]:
        """Summary statistics used by the IQMS 'data understanding' step."""
        if not self._transactions:
            return {
                "transactions": 0,
                "distinct_items": 0,
                "avg_size": 0.0,
                "span": None,
            }
        start, end = self.time_span()
        return {
            "transactions": len(self._transactions),
            "distinct_items": len(self.items_universe()),
            "avg_size": round(self.average_transaction_size(), 3),
            "span": (start.isoformat(), end.isoformat()),
        }
