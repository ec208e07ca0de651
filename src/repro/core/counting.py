"""Candidate support-counting strategies.

The two classic per-transaction counters behind the ``dict`` and
``hashtree`` backends of :mod:`repro.columnar.backends`; production
counting (``"auto"``) runs the bitmap kernels instead, and
:class:`DictCounter` is the reference the property suite compares every
backend against:

* :class:`DictCounter` — direct subset enumeration against a candidate
  dictionary.  For a transaction of size t and candidate size k it either
  enumerates the C(t, k) subsets (when small) or probes each candidate.
* :class:`HashTreeCounter` — the Agrawal–Srikant hash tree
  (:mod:`repro.core.hashtree`), best when |C_k| is large.

Both count each (transaction, candidate) containment exactly once, so the
resulting support counts are identical — a property the test suite checks.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, Sequence

from repro.core.hashtree import HashTree
from repro.core.items import Item, Itemset


class DictCounter:
    """Direct counting against a candidate dictionary.

    Chooses per transaction between enumerating its k-subsets (cheap when
    the basket is small) and probing every candidate (cheap when there are
    few candidates).  Counts are keyed by raw item tuples internally —
    building an :class:`Itemset` per probed subset would dominate the
    runtime of large scans.
    """

    def __init__(self, candidates: Iterable[Itemset]):
        self._counts: Dict[tuple, int] = {c.items: 0 for c in candidates}
        sizes = {len(c) for c in self._counts}
        if len(sizes) > 1:
            raise ValueError(f"all candidates must share one size, got sizes {sizes}")
        self._k = sizes.pop() if sizes else 0

    def count_transaction(self, transaction_items: Sequence[Item]) -> None:
        k = self._k
        t = len(transaction_items)
        if k == 0 or t < k:
            return
        counts = self._counts
        n_subsets = 1
        for i in range(k):
            n_subsets = n_subsets * (t - i) // (i + 1)
            if n_subsets > 4 * len(counts):
                break
        if n_subsets <= 4 * len(counts):
            # Transaction items are sorted, so each combination tuple is
            # already in canonical (sorted) order.
            for combo in combinations(transaction_items, k):
                if combo in counts:
                    counts[combo] += 1
        else:
            transaction_set = set(transaction_items)
            for candidate in counts:
                if all(item in transaction_set for item in candidate):
                    counts[candidate] += 1

    def counts(self) -> Dict[Itemset, int]:
        return {Itemset(items): count for items, count in self._counts.items()}


class HashTreeCounter:
    """Hash-tree-backed counting (see :mod:`repro.core.hashtree`)."""

    def __init__(
        self,
        candidates: Iterable[Itemset],
        fanout: int = 8,
        leaf_capacity: int = 16,
    ):
        self._tree = HashTree(list(candidates), fanout=fanout, leaf_capacity=leaf_capacity)

    def count_transaction(self, transaction_items: Sequence[Item]) -> None:
        self._tree.count_transaction(transaction_items)

    def counts(self) -> Dict[Itemset, int]:
        return self._tree.counts()
