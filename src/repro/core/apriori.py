"""The Apriori algorithm (Agrawal & Srikant, VLDB 1994).

This is the substrate every temporal mining task builds on.  The
implementation follows the paper's two ideas exactly:

1. **Level-wise search** — frequent (k)-itemsets are found from candidate
   k-itemsets generated out of frequent (k−1)-itemsets, exploiting the
   anti-monotonicity of support.
2. **Candidate generation** = *join* (two frequent (k−1)-itemsets sharing a
   (k−2)-prefix) followed by *prune* (drop candidates with any infrequent
   (k−1)-subset).

Options mirror the classic engineering choices: pluggable counting
backend (selected through the registry in
:mod:`repro.columnar.backends`, which also owns what ``"auto"`` means)
and transaction reduction (drop transactions that can no longer contain
any candidate).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.columnar.backends import (
    BasketSegment,
    resolve_backend,
    validate_backend_name,
)
from repro.columnar.encoded import EncodedDatabase, EncodedSegment
from repro.core.items import Item, Itemset
from repro.core.levels import as_itemsets, as_rows, join, next_level, prune
from repro.core.transactions import TransactionDatabase
from repro.errors import MiningParameterError
from repro.runtime.budget import RunInterrupted, RunMonitor

#: Either transaction representation; all mining entry points accept both.
AnyDatabase = Union[TransactionDatabase, EncodedDatabase]


@dataclass(frozen=True)
class AprioriOptions:
    """Tuning knobs for one Apriori run.

    Attributes:
        counting: ``"auto"`` (the ``packed`` bitmap kernel) or any
            registered backend name.
        transaction_reduction: drop transactions smaller than the current
            candidate size between passes (they cannot support anything;
            moot for the bitmap backends, which never re-scan baskets).
        max_size: stop after frequent itemsets of this size (0 = unbounded).
    """

    counting: str = "auto"
    transaction_reduction: bool = True
    max_size: int = 0

    def __post_init__(self) -> None:
        validate_backend_name(self.counting)
        if self.max_size < 0:
            raise MiningParameterError("max_size must be >= 0")


class FrequentItemsets:
    """The result of a frequent-itemset mining run.

    Maps every frequent itemset to its absolute support count and records
    the database size, so relative supports are recoverable.
    """

    def __init__(self, counts: Mapping[Itemset, int], n_transactions: int):
        self._counts: Dict[Itemset, int] = dict(counts)
        self._n = n_transactions

    @property
    def n_transactions(self) -> int:
        """Size of the mined database."""
        return self._n

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, itemset: Itemset) -> bool:
        return itemset in self._counts

    def __iter__(self):
        return iter(self._counts)

    def items(self):
        return self._counts.items()

    def count(self, itemset: Itemset) -> int:
        """Absolute support; 0 for itemsets not found frequent."""
        return self._counts.get(itemset, 0)

    def support(self, itemset: Itemset) -> float:
        """Relative support; 0.0 for itemsets not found frequent."""
        if self._n == 0:
            return 0.0
        return self._counts.get(itemset, 0) / self._n

    def of_size(self, size: int) -> List[Itemset]:
        """All frequent itemsets of exactly ``size`` items, sorted."""
        return sorted(s for s in self._counts if len(s) == size)

    def max_size(self) -> int:
        """Largest frequent itemset size (0 when empty)."""
        return max((len(s) for s in self._counts), default=0)

    def as_dict(self) -> Dict[Itemset, int]:
        return dict(self._counts)

    def __repr__(self) -> str:
        return f"FrequentItemsets(n_itemsets={len(self._counts)}, n_transactions={self._n})"


def validate_min_support(min_support: float) -> None:
    """Raise unless ``0 < min_support <= 1``."""
    if not 0.0 < min_support <= 1.0:
        raise MiningParameterError(
            f"min_support must be in (0, 1], got {min_support}"
        )


def apriori_join(frequent_prev: Sequence[Itemset]) -> List[Itemset]:
    """Join step: merge frequent (k−1)-itemsets sharing a (k−2)-prefix.

    ``frequent_prev`` must all have the same size; the result contains
    candidate k-itemsets in lexicographic order.
    """
    if not frequent_prev:
        return []
    return as_itemsets(join(as_rows(sorted(frequent_prev))))


def apriori_prune(
    candidates: Iterable[Itemset], frequent_prev: Iterable[Itemset]
) -> List[Itemset]:
    """Prune step: keep candidates whose every (k−1)-subset is frequent.

    Checks all ``k`` subsets, the two the join guarantees included, so it
    stays correct for candidates that did not come from a join.
    """
    candidates = list(candidates)
    frequent = list(frequent_prev)
    if not candidates or not frequent:
        return []
    kept = prune(as_rows(candidates), as_rows(frequent))
    return as_itemsets(kept)


def generate_candidates(frequent_prev: Sequence[Itemset]) -> List[Itemset]:
    """Full candidate generation, join then prune, in lexicographic order.

    The :class:`Itemset` adapter over :func:`repro.core.levels.next_level`.
    """
    if not frequent_prev:
        return []
    return as_itemsets(next_level(as_rows(sorted(frequent_prev))))


def apriori(
    database: AnyDatabase,
    min_support: float,
    options: Optional[AprioriOptions] = None,
    monitor: Optional[RunMonitor] = None,
) -> FrequentItemsets:
    """Mine all frequent itemsets of ``database`` at ``min_support``.

    Args:
        database: timestamped transaction database (timestamps ignored
            here) — either the classic :class:`TransactionDatabase` or a
            columnar :class:`~repro.columnar.encoded.EncodedDatabase`.
        min_support: relative threshold in (0, 1].
        options: see :class:`AprioriOptions`.
        monitor: optional run monitor; when its budget is exhausted (or
            its token cancelled) the search stops at a pass boundary and
            the itemsets of the completed passes are returned — an exact
            subset of the unbudgeted result.

    Returns:
        All itemsets whose relative support is >= ``min_support``, with
        their absolute counts (possibly truncated to the completed
        passes when a monitored run stops early).
    """
    monitor = monitor or RunMonitor()
    validate_min_support(min_support)
    options = options or AprioriOptions()
    n = len(database)
    result: Dict[Itemset, int] = {}
    if n == 0:
        return FrequentItemsets(result, 0)
    # Threshold as an absolute count, rounded up (support >= min_support).
    min_count = _min_count(min_support, n)

    try:
        # Pass 1: count single items directly.
        item_counts = database.item_frequencies()
        frequent: List[Itemset] = []
        for item, count in item_counts.items():
            if count >= min_count:
                singleton = Itemset((item,))
                result[singleton] = count
                frequent.append(singleton)
        frequent.sort()
        monitor.complete_pass()
        monitor.checkpoint()

        # Bitmap backends (vertical/packed, hence ``auto``) count against
        # one index over the whole database, built by the first pass and
        # reused by every later one; horizontal backends re-scan a
        # working basket list that transaction reduction may shrink.
        encoded = (
            database if isinstance(database, EncodedDatabase) else database.encoded()
        )
        whole = encoded.segment()
        reduced: Optional[List[Tuple[Item, ...]]] = None

        k = 2
        while frequent and (options.max_size == 0 or k <= options.max_size):
            candidates = generate_candidates(frequent)
            if not candidates:
                break
            monitor.charge_candidates(len(candidates))
            backend = resolve_backend(options.counting)
            segment: Union[EncodedSegment, BasketSegment] = whole
            if not backend.uses_vertical and options.transaction_reduction:
                working = whole.baskets() if reduced is None else reduced
                reduced = [b for b in working if len(b) >= k]
                segment = BasketSegment(reduced)
            counted = backend.count_pass(candidates, segment, monitor=monitor)
            frequent = []
            for itemset, count in counted.items():
                if count >= min_count:
                    result[itemset] = count
                    frequent.append(itemset)
            frequent.sort()
            monitor.complete_pass()
            k += 1
    except RunInterrupted:
        # Stop at the pass boundary: the interrupted pass's counts are
        # incomplete and are discarded wholesale, so every itemset in
        # ``result`` carries its exact support.
        pass
    return FrequentItemsets(result, n)


def brute_force_frequent_itemsets(
    database: TransactionDatabase, min_support: float, max_size: int = 0
) -> FrequentItemsets:
    """Exhaustive reference miner used to validate :func:`apriori`.

    Enumerates every subset of every transaction — exponential, only for
    tests on tiny databases.
    """
    validate_min_support(min_support)
    n = len(database)
    if n == 0:
        return FrequentItemsets({}, 0)
    min_count = _min_count(min_support, n)
    counts: Dict[Itemset, int] = {}
    for transaction in database:
        items = transaction.items.items
        limit = len(items) if max_size == 0 else min(max_size, len(items))
        for size in range(1, limit + 1):
            for combo in combinations(items, size):
                key = Itemset(combo)
                counts[key] = counts.get(key, 0) + 1
    frequent = {s: c for s, c in counts.items() if c >= min_count}
    return FrequentItemsets(frequent, n)


def _min_count(min_support: float, n: int) -> int:
    """Smallest absolute count satisfying ``count / n >= min_support``.

    Computed via ceiling with a small epsilon guard against float error
    (e.g. ``0.3 * 10`` is ``2.9999999999999996``).
    """
    import math

    exact = min_support * n
    threshold = math.ceil(exact - 1e-9)
    return max(threshold, 1)
