"""The Partition algorithm (Savasere, Omiecinski & Navathe, VLDB 1995).

The third classical frequent-itemset engine of the paper's era, built on
one observation: **any globally frequent itemset is locally frequent in
at least one partition** of the database.  The algorithm therefore

1. splits the database into ``n_partitions`` chunks,
2. mines each chunk independently (here with Apriori) at the same
   *relative* threshold, unioning the local results into a global
   candidate set, and
3. makes one final counting pass over the whole database to compute the
   exact global supports of those candidates.

Exactly two scans of the data, like FP-growth; unlike FP-growth the
memory footprint is bounded by one partition.  The test suite asserts
exact agreement with Apriori and FP-growth on every input.

Interestingly, the partition principle is the non-temporal twin of this
library's temporal engine: :mod:`repro.mining.context` partitions *by
time unit* and keeps the per-partition counts because there the local
supports are the object of interest, not an intermediate.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.columnar.backends import resolve_backend
from repro.core.apriori import (
    AprioriOptions,
    FrequentItemsets,
    _min_count,
    apriori,
    validate_min_support,
)
from repro.core.items import Itemset
from repro.core.transactions import Transaction, TransactionDatabase
from repro.errors import MiningParameterError


def partition(
    database: TransactionDatabase,
    min_support: float,
    n_partitions: int = 4,
    max_size: int = 0,
    counting: str = "auto",
) -> FrequentItemsets:
    """Mine all frequent itemsets with the Partition algorithm.

    Args:
        database: the transaction database (timestamps ignored).
        min_support: relative threshold in (0, 1].
        n_partitions: number of database chunks (>= 1; 1 degenerates to
            plain Apriori plus a redundant verification scan).
        max_size: cap on itemset size (0 = unbounded).
        counting: counting strategy for the global verification pass.

    Returns:
        Exactly the itemsets (and counts) that
        :func:`repro.core.apriori.apriori` returns.
    """
    validate_min_support(min_support)
    if n_partitions < 1:
        raise MiningParameterError(f"n_partitions must be >= 1, got {n_partitions}")
    if max_size < 0:
        raise MiningParameterError("max_size must be >= 0")
    n = len(database)
    if n == 0:
        return FrequentItemsets({}, 0)

    transactions: Sequence[Transaction] = database.transactions
    chunk_size = (n + n_partitions - 1) // n_partitions

    # Phase 1: local mining — union of locally frequent itemsets.
    candidates: set = set()
    for start in range(0, n, chunk_size):
        chunk = TransactionDatabase(catalog=database.catalog)
        for transaction in transactions[start : start + chunk_size]:
            chunk.append(transaction)
        local = apriori(
            chunk, min_support, options=AprioriOptions(max_size=max_size)
        )
        candidates.update(local)

    # Phase 2: one global pass verifies exact counts, grouped by size.
    min_count = _min_count(min_support, n)
    by_size: Dict[int, List[Itemset]] = {}
    for candidate in candidates:
        by_size.setdefault(len(candidate), []).append(candidate)

    result: Dict[Itemset, int] = {}
    segment = database.encoded().segment()
    for size in sorted(by_size):
        backend = resolve_backend(counting)
        for itemset, count in backend.count_pass(by_size[size], segment).items():
            if count >= min_count:
                result[itemset] = count
    return FrequentItemsets(result, n)
