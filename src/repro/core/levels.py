"""Itemset levels as sorted id matrices — the array form of Apriori.

A *level* holds every itemset of one size ``k`` as an ``(n, k)`` int64
matrix: one itemset per row, items ascending within a row, rows in
lexicographic order (the order ``sorted()`` gives the same
:class:`~repro.core.items.Itemset` objects).  The level-wise miners keep
their levels in this form from candidate generation through rule
evaluation; :class:`~repro.core.items.Itemset` objects are built only at
the edges (:func:`as_itemsets`), for what a mine emits.

Two kernels work on levels:

* :func:`next_level` — Apriori candidate generation.  The *join* is a
  sorted-prefix group-by: rows sharing their first ``k - 1`` items are
  contiguous, so every pair inside a group is an ``np.repeat`` plus a
  ragged arange.  The *prune* looks every other size-``k`` subset of a
  candidate up in the level it came from.
* :class:`RowIndex` — "where is this row in that level", answered for a
  whole matrix of rows with one :func:`numpy.searchsorted` over scalar
  row keys.

A row key (:func:`row_keys`) is the row read as a number in base
``max id + 1`` — an int64 that sorts exactly like the rows do.  When
``base ** k`` would overflow int64 the key is instead the row's
big-endian bytes viewed as one ``void`` scalar, which ``memcmp`` orders
the same way.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.items import Itemset

#: Largest row key the int64 form can hold.
_INT64_KEYS = 2**63


def ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(start, start + length)`` of every pair, concatenated."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(total)


def as_rows(itemsets: Sequence[Itemset]) -> np.ndarray:
    """A non-empty list of same-size itemsets as an ``(n, k)`` int64 id matrix.

    Itemsets of differing sizes raise :class:`ValueError`.
    """
    return np.array([itemset.items for itemset in itemsets], dtype=np.int64).reshape(
        len(itemsets), -1
    )


def as_itemsets(rows: np.ndarray) -> List[Itemset]:
    """The rows of a level matrix as :class:`Itemset` objects, in row order."""
    canonical = Itemset.canonical
    # Zipping the columns builds each row's tuple in C.
    return [canonical(items) for items in zip(*rows.T.tolist())]


def row_keys(rows: np.ndarray, base: int) -> np.ndarray:
    """One scalar per row that sorts (and compares) like the rows.

    Every id must lie in ``[0, base)``.  The key is the int64
    ``sum(row[c] * base ** (k - 1 - c))`` while ``base ** k`` fits, and
    the row's big-endian bytes as one ``void`` scalar otherwise.
    """
    k = rows.shape[1]
    if base**k <= _INT64_KEYS:
        keys = rows[:, 0].astype(np.int64)
        for column in range(1, k):
            keys = keys * base + rows[:, column]
        return keys
    packed = np.ascontiguousarray(rows, dtype=">u8")
    return packed.view(np.dtype((np.void, 8 * k))).ravel()


class RowIndex:
    """Positions of rows in one matrix, looked up a matrix at a time.

    Built over any ``(n, k)`` matrix of non-negative ids (a sorted level
    skips the sort); :meth:`find` maps each query row to its position in
    that matrix, or ``-1``.
    """

    __slots__ = ("base", "_keys", "_order")

    def __init__(self, rows: np.ndarray):
        self.base = int(rows.max()) + 1 if rows.size else 1
        keys = row_keys(rows, self.base)
        order = None
        # Byte keys have no ``>`` loop: sort them unconditionally.
        if len(keys) > 1 and (keys.dtype.kind == "V" or not np.all(keys[1:] > keys[:-1])):
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
        self._keys = keys
        self._order = order

    def find(self, queries: np.ndarray) -> np.ndarray:
        """Position of every query row (same width), ``-1`` where absent."""
        n = len(queries)
        if not n or not len(self._keys):
            return np.full(n, -1, dtype=np.int64)
        inside = np.all(queries < self.base, axis=1)
        keys = row_keys(np.where(inside[:, None], queries, 0), self.base)
        slots = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        hit = inside & (self._keys[slots] == keys)
        positions = slots if self._order is None else self._order[slots]
        return np.where(hit, positions, -1)


def join(level: np.ndarray) -> np.ndarray:
    """Apriori join: every pair of rows sharing all but their last item.

    ``level`` is a sorted ``(n, k - 1)`` level; the result is the
    ``(m, k)`` joined rows in lexicographic order — row ``i`` extended by
    the last item of every later row ``j`` of its prefix group.
    """
    n, width = level.shape
    if n < 2:
        return np.zeros((0, width + 1), dtype=np.int64)
    if width > 1:
        change = np.any(level[1:, :-1] != level[:-1, :-1], axis=1)
        starts = np.flatnonzero(np.concatenate(([True], change)))
    else:
        starts = np.zeros(1, dtype=np.int64)
    sizes = np.diff(np.append(starts, n))
    rows = np.arange(n)
    partners = np.repeat(starts + sizes, sizes) - rows - 1
    left = np.repeat(rows, partners)
    right = ragged_arange(rows + 1, partners)
    return np.concatenate([level[left], level[right, -1:]], axis=1)


def prune(
    candidates: np.ndarray,
    level: np.ndarray,
    columns: Optional[Iterable[int]] = None,
) -> np.ndarray:
    """Candidates whose every subset dropping one of ``columns`` is in ``level``.

    ``columns`` defaults to all of them; :func:`next_level` skips the
    last two, whose subsets are the joined rows themselves.  Rows keep
    their order.
    """
    k = candidates.shape[1]
    if level.shape[1] != k - 1:
        return candidates[:0]
    columns = range(k) if columns is None else columns
    index: Optional[RowIndex] = None
    for column in columns:
        if not len(candidates):
            break
        index = index or RowIndex(level)
        subsets = np.delete(candidates, column, axis=1)
        candidates = candidates[index.find(subsets) >= 0]
    return candidates


def next_level(level: np.ndarray) -> np.ndarray:
    """Candidate generation, join then prune, on a sorted level matrix."""
    joined = join(level)
    return prune(joined, level, range(joined.shape[1] - 2))
