"""Candidate rule enumeration and per-unit rule validity.

Bridges per-unit itemset counts (:class:`~repro.mining.context.PerUnitCounts`)
to rule-level temporal analysis: every retained itemset of size >= 2 is
split into antecedent/consequent pairs, and each rule's per-unit *validity
sequence* — the boolean vector "does the rule hold in unit u" — is derived
from the counts.  The validity sequence is the single structure both the
valid-period and the periodicity algorithms consume.

The splits of a whole level are evaluated at once (:func:`rule_table`):
each split pattern is a choice of consequent columns of the level's id
matrix, the antecedent rows are found in their own level with one
:meth:`~repro.core.levels.RowIndex.find`, and support, confidence and
validity of every rule of the level come out of one broadcast.  The
result is a :class:`RuleTable` of row-aligned ``rules × units`` matrices;
:class:`~repro.core.rulegen.RuleKey` objects are built only for the rows
a task emits.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.items import Itemset
from repro.core.levels import as_rows
from repro.core.rulegen import RuleKey
from repro.mining.context import PerUnitCounts

#: Matrix cells one broadcast of :func:`rule_table` may hold; bounds the
#: float confidence scratch however large a level is.
_BROADCAST_CELLS = 1 << 20


def maximal_runs(valid: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every maximal run of ``True`` in a 2-D boolean matrix, row-major.

    Returns ``(rows, starts, stops)`` with ``stops`` exclusive.  A run
    starts and stops where the ``False``-padded row changes value — one
    :func:`numpy.diff` for all rows; the changes alternate start, stop.
    """
    edges = np.diff(valid, axis=1, prepend=False, append=False)
    rows, columns = np.nonzero(edges)
    return rows[::2], columns[::2], columns[1::2]


class RuleUnitSeries:
    """Per-unit arrays for one candidate rule: row ``row`` of ``table``.

    Attributes:
        key: the rule (X ⇒ Y).
        itemset_counts: per-unit absolute support of X ∪ Y.
        antecedent_counts: per-unit absolute support of X.
        valid: boolean per-unit validity (support and confidence hold).
        table / row: the :class:`RuleTable` row holding the arrays (a
            series built from loose arrays gets a one-row table).
    """

    __slots__ = ("table", "row")

    def __init__(
        self,
        key: RuleKey,
        itemset_counts: np.ndarray,
        antecedent_counts: np.ndarray,
        valid: np.ndarray,
    ):
        width = max(len(key.antecedent), len(key.consequent))
        self.table = RuleTable(
            _padded(as_rows([key.antecedent]), width),
            _padded(as_rows([key.consequent]), width),
            np.asarray(itemset_counts)[None],
            np.asarray(antecedent_counts)[None],
            np.asarray(valid, dtype=bool)[None],
        )
        self.table._keys[0] = key
        self.row = 0

    @property
    def key(self) -> RuleKey:
        return self.table.key(self.row)

    @property
    def itemset_counts(self) -> np.ndarray:
        return self.table.itemset_counts[self.row]

    @property
    def antecedent_counts(self) -> np.ndarray:
        return self.table.antecedent_counts[self.row]

    @property
    def valid(self) -> np.ndarray:
        return self.table.valid[self.row]

    def n_valid_units(self) -> int:
        return int(np.count_nonzero(self.valid))

    def temporal_support(self, unit_sizes: np.ndarray, mask: np.ndarray) -> float:
        """Support of X ∪ Y over the transactions of the masked units."""
        denominator = int(unit_sizes[mask].sum())
        if denominator == 0:
            return 0.0
        return float(self.itemset_counts[mask].sum()) / denominator

    def temporal_confidence(self, mask: np.ndarray) -> float:
        """Confidence over the transactions of the masked units."""
        denominator = int(self.antecedent_counts[mask].sum())
        if denominator == 0:
            return 0.0
        return float(self.itemset_counts[mask].sum()) / denominator


class RuleTable:
    """Candidate rules as row-aligned arrays, sorted by (antecedent, consequent).

    Attributes:
        antecedents / consequents: ``(m, width)`` id matrices, each row's
            items first and ``-1`` padding after them — so a plain
            lexicographic row order is the itemset tuple order.
        itemset_counts: ``(m, n_units)`` per-unit support of X ∪ Y.
        antecedent_counts: ``(m, n_units)`` per-unit support of X.
        valid: ``(m, n_units)`` boolean per-unit validity.
        derived: what the task modules compute from the whole table, by
            their own keys (e.g. every row's valid periods), so a
            per-series call reads its row instead of recomputing.
    """

    def __init__(
        self,
        antecedents: np.ndarray,
        consequents: np.ndarray,
        itemset_counts: np.ndarray,
        antecedent_counts: np.ndarray,
        valid: np.ndarray,
    ):
        self.antecedents = antecedents
        self.consequents = consequents
        self.itemset_counts = itemset_counts
        self.antecedent_counts = antecedent_counts
        self.valid = valid
        self.derived: Dict[object, object] = {}
        self._keys: Dict[int, RuleKey] = {}
        self._itemsets: Dict[Tuple[int, ...], Itemset] = {}
        self._sides: Optional[Tuple[list, list, list, list]] = None
        self._prefix: Optional[np.ndarray] = None
        self._runs: Optional[Tuple[np.ndarray, ...]] = None

    def __len__(self) -> int:
        return len(self.valid)

    def key(self, row: int) -> RuleKey:
        """The :class:`RuleKey` of one row (built once, on demand)."""
        key = self._keys.get(row)
        if key is None:
            if self._sides is None:
                self._sides = (
                    self.antecedents.tolist(),
                    np.count_nonzero(self.antecedents >= 0, axis=1).tolist(),
                    self.consequents.tolist(),
                    np.count_nonzero(self.consequents >= 0, axis=1).tolist(),
                )
            antecedents, left, consequents, right = self._sides
            key = self._keys[row] = RuleKey(
                self._itemset(tuple(antecedents[row][: left[row]])),
                self._itemset(tuple(consequents[row][: right[row]])),
            )
        return key

    def _itemset(self, items: Tuple[int, ...]) -> Itemset:
        """One shared :class:`Itemset` per distinct side across the table's keys."""
        itemset = self._itemsets.get(items)
        if itemset is None:
            itemset = self._itemsets[items] = Itemset.canonical(items)
        return itemset

    def window_sums(
        self, rows: np.ndarray, starts: np.ndarray, stops: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Itemset and antecedent counts of each row over units ``start:stop``.

        Differences of per-rule prefix sums — integers, so every ratio
        built from them is exact to the last bit.
        """
        if self._prefix is None:
            m, n_units = self.valid.shape
            self._prefix = np.zeros((2, m, n_units + 1), dtype=np.int64)
            np.cumsum(self.itemset_counts, axis=1, out=self._prefix[0, :, 1:])
            np.cumsum(self.antecedent_counts, axis=1, out=self._prefix[1, :, 1:])
        sums = self._prefix[:, rows, stops] - self._prefix[:, rows, starts]
        return sums[0], sums[1]

    def runs(self) -> Tuple[np.ndarray, ...]:
        """``(rows, starts, stops, itemset_sums, antecedent_sums)`` of every
        maximal valid run (:func:`maximal_runs`), found once per table."""
        if self._runs is None:
            rows, starts, stops = maximal_runs(self.valid)
            self._runs = (rows, starts, stops, *self.window_sums(rows, starts, stops))
        return self._runs

    def series(self) -> List[RuleUnitSeries]:
        """One :class:`RuleUnitSeries` per row, in table order.

        The table's maximal valid runs are found here, for all rows at
        once — the structure Task VP reads every series through.
        """
        self.runs()
        new = object.__new__
        result = []
        for row in range(len(self)):
            series = new(RuleUnitSeries)
            series.table = self
            series.row = row
            result.append(series)
        return result


def enumerate_rule_splits(
    itemset: Itemset, max_consequent_size: int = 0
) -> Iterator[RuleKey]:
    """All (antecedent, consequent) splits of an itemset.

    Both sides non-empty and disjoint; ``max_consequent_size`` caps |Y|
    (0 = unbounded).

    >>> [str(k) for k in enumerate_rule_splits(Itemset.of(1, 2), 1)]
    ['{2} => {1}', '{1} => {2}']
    """
    items = itemset.items
    size = len(items)
    if size < 2:
        return
    limit = size - 1 if max_consequent_size == 0 else min(max_consequent_size, size - 1)
    for consequent_size in range(1, limit + 1):
        for consequent_items in combinations(items, consequent_size):
            consequent = Itemset(consequent_items)
            antecedent = itemset.difference(consequent)
            yield RuleKey(antecedent=antecedent, consequent=consequent)


def _validity(
    itemset_counts: np.ndarray,
    antecedent_counts: np.ndarray,
    thresholds: np.ndarray,
    min_confidence: float,
) -> np.ndarray:
    """A rule holds in a unit: locally frequent and confident enough there.

    Broadcasts over any leading axes of ``antecedent_counts``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        confidence = np.where(
            antecedent_counts > 0,
            itemset_counts / np.maximum(antecedent_counts, 1),
            0.0,
        )
    return (itemset_counts >= thresholds) & (confidence >= min_confidence - 1e-12)


def rule_series(
    counts: PerUnitCounts,
    key: RuleKey,
    min_confidence: float,
) -> RuleUnitSeries:
    """Build the per-unit validity series of one rule.

    A rule holds in unit ``u`` when its itemset is locally frequent there
    (per-unit support >= the counts' ``min_support``) and the unit
    confidence meets ``min_confidence``.
    """
    itemset_counts = counts.support_array(key.itemset)
    antecedent_counts = counts.support_array(key.antecedent)
    return RuleUnitSeries(
        key=key,
        itemset_counts=itemset_counts,
        antecedent_counts=antecedent_counts,
        valid=_validity(itemset_counts, antecedent_counts, counts.thresholds, min_confidence),
    )


def _padded(rows: np.ndarray, width: int) -> np.ndarray:
    out = np.full((len(rows), width), -1, dtype=np.int64)
    out[:, : rows.shape[1]] = rows
    return out


def rule_table(
    counts: PerUnitCounts,
    min_confidence: float,
    min_valid_units: int = 1,
    max_consequent_size: int = 0,
) -> RuleTable:
    """Every candidate rule holding in at least ``min_valid_units`` units.

    For each level ``k >= 2`` and consequent size ``c``, the
    ``C(k, c)`` column patterns split all the level's rows at once: the
    antecedent rows are looked up in level ``k - c`` (a missing one
    counts zero everywhere, like :meth:`PerUnitCounts.support_array`),
    and validity is one broadcast over ``patterns × rows × units``.  Rows
    failing the rule-level temporal prune are dropped before anything
    else is built; the survivors are sorted by (antecedent, consequent).
    """
    levels = counts.levels
    n_units = counts.context.n_units
    width = max(len(levels) - 1, 1)
    parts: List[Tuple[np.ndarray, ...]] = []
    for k in range(2, len(levels) + 1):
        ids, itemset_counts = levels[k - 1]
        limit = k - 1 if max_consequent_size == 0 else min(max_consequent_size, k - 1)
        for size in range(1, limit + 1):
            patterns = list(combinations(range(k), size))
            sides = [
                ([c for c in range(k) if c not in pattern], list(pattern))
                for pattern in patterns
            ]
            lookup = counts.index(k - size)
            known = levels[k - size - 1][1]
            block = max(1, _BROADCAST_CELLS // (len(patterns) * max(n_units, 1)))
            for start in range(0, len(ids), block):
                rows = ids[start : start + block]
                antecedents = np.stack([rows[:, left] for left, _ in sides])
                found = lookup.find(antecedents.reshape(-1, k - size))
                antecedent_counts = known[np.maximum(found, 0)]
                antecedent_counts[found < 0] = 0
                antecedent_counts = antecedent_counts.reshape(len(sides), len(rows), -1)
                block_counts = itemset_counts[start : start + block]
                valid = _validity(
                    block_counts, antecedent_counts, counts.thresholds, min_confidence
                )
                pattern, row = np.nonzero(valid.sum(axis=2) >= min_valid_units)
                if not len(row):
                    continue
                consequents = np.stack([rows[:, right] for _, right in sides])
                parts.append(
                    (
                        _padded(antecedents[pattern, row], width),
                        _padded(consequents[pattern, row], width),
                        block_counts[row],
                        antecedent_counts[pattern, row],
                        valid[pattern, row],
                    )
                )
    if not parts:
        empty = np.zeros((0, width), dtype=np.int64)
        matrix = np.zeros((0, n_units), dtype=np.int64)
        return RuleTable(empty, empty, matrix, matrix, matrix.astype(bool))
    antecedents, consequents, itemset_counts, antecedent_counts, valid = (
        np.concatenate(column) for column in zip(*parts)
    )
    # np.lexsort's last key is the primary one.
    order = np.lexsort(
        [consequents[:, c] for c in reversed(range(width))]
        + [antecedents[:, c] for c in reversed(range(width))]
    )
    return RuleTable(
        antecedents[order],
        consequents[order],
        itemset_counts[order],
        antecedent_counts[order],
        valid[order],
    )


def candidate_rules(
    counts: PerUnitCounts,
    min_confidence: float,
    min_valid_units: int = 1,
    max_consequent_size: int = 0,
) -> List[RuleUnitSeries]:
    """Every candidate rule holding in at least ``min_valid_units`` units.

    The series of :func:`rule_table`'s rows, sorted by (antecedent,
    consequent) — the rule-level temporal prune over all splits of all
    retained itemsets of size >= 2.
    """
    return rule_table(
        counts, min_confidence, min_valid_units, max_consequent_size
    ).series()
