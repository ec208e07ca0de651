"""Per-item packed bitmaps with popcount-based support counting.

The vertical representation of a transaction segment: for every item, a
bitmap over the segment's transactions (bit *t* set when transaction *t*
contains the item), packed 64 transactions per ``uint64`` word.  The
support of a candidate itemset is then the popcount of the AND of its
item bitmaps — no per-transaction Python work at all, which is the whole
point of the columnar refactor.

Bitmaps are stored as one 2-D matrix (``n_item_rows + 1`` rows by
``n_words`` columns); the extra final row is an all-zero sentinel that
absorbs item ids outside the indexed universe, so a candidate mentioning
an unseen item cleanly counts zero.

Two indexes share that layout.  :class:`VerticalIndex` covers one
transaction segment and answers "support in the segment".
:class:`UnitIndex` covers a run of *time units*, every unit starting on
a fresh word, and answers "support in every unit" for a whole pass of
candidates in one segmented popcount — the kernel behind all per-unit
counting.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.items import Item, Itemset
from repro.core.levels import as_rows, ragged_arange
from repro.runtime.budget import RunMonitor

#: Candidates counted between two monitor checkpoints.
_CANDIDATE_STRIDE = 4096

#: Candidates materialized per block by the packed kernel; bounds the
#: working set to ``chunk * n_words * 8`` bytes per intersection level.
_PACKED_CHUNK = 4096

#: Bitmap bytes one candidate block of the segmented kernel may hold per
#: intersection level.  The block's candidate count is derived from it
#: and the index width (down to one candidate on an index wider than
#: this), so the working set does not grow with the store.
_BLOCK_BYTES = 256 * 1024

#: Widest unit, in words, whose per-unit sums the segmented kernel takes
#: word plane by word plane (one gather-add per plane); an index with a
#: wider unit reduces with :func:`numpy.add.reduceat` instead, whose
#: per-cell overhead only pays off on long runs of words.
_PLANE_WORDS = 4

#: Transactions whose occurrences the unit-aligned index inserts at a
#: time; bounds the build's scratch arrays the same way.
_SLAB_TRANSACTIONS = 4096

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Set bits of every 16-bit value: the popcount of numpy < 2.  Built by
#: doubling — setting the next higher bit adds one to every count so far.
_POPCOUNT16 = np.zeros(1, dtype=np.uint16)
for _ in range(16):
    _POPCOUNT16 = np.concatenate([_POPCOUNT16, _POPCOUNT16 + np.uint16(1)])


def popcount_sum(words: np.ndarray) -> int:
    """Total number of set bits in a uint64 array (any shape)."""
    if _HAS_BITWISE_COUNT:
        return int(np.bitwise_count(words).sum())
    contiguous = np.ascontiguousarray(words)
    return int(_POPCOUNT16[contiguous.view(np.uint16)].sum())


def popcount_rows(matrix: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a 2-D uint64 matrix (int64 vector)."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(matrix).sum(axis=-1, dtype=np.int64)
    halves = np.ascontiguousarray(matrix).view(np.uint16)
    return _POPCOUNT16[halves].sum(axis=-1, dtype=np.int64)


def popcount_words(matrix: np.ndarray) -> np.ndarray:
    """Set-bit count of every word of a 2-D uint64 matrix (uint8, same shape)."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(matrix)
    halves = np.ascontiguousarray(matrix).view(np.uint16)
    return _POPCOUNT16[halves].reshape(*matrix.shape, 4).sum(axis=-1, dtype=np.uint8)


def candidate_ids(
    candidates: Union[Sequence[Itemset], np.ndarray], n_item_rows: int
) -> np.ndarray:
    """Same-size candidates as an ``(n, k)`` matrix of bitmap row numbers.

    ``candidates`` is a sequence of itemsets or already a level's id
    matrix (:mod:`repro.core.levels`).  Item ids outside
    ``[0, n_item_rows)`` are mapped to the zero sentinel row
    ``n_item_rows``.  Candidates of differing sizes raise
    :class:`ValueError` (numpy refuses the ragged matrix).
    """
    if isinstance(candidates, np.ndarray):
        ids = candidates.astype(np.int64)
    else:
        ids = as_rows(candidates)
    ids[(ids < 0) | (ids >= n_item_rows)] = n_item_rows
    return ids


class VerticalIndex:
    """Per-item bitmaps over one transaction segment.

    Build once per segment (the layout is pass-invariant), then count
    candidates of every size against it; the index never changes between
    Apriori passes, which is what makes the vertical backend fast.
    """

    __slots__ = ("_matrix", "n_transactions", "n_words", "n_item_rows")

    def __init__(self, matrix: np.ndarray, n_transactions: int):
        self._matrix = matrix
        self.n_transactions = n_transactions
        self.n_words = matrix.shape[1]
        self.n_item_rows = matrix.shape[0] - 1  # last row is the zero sentinel

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_csr(
        cls, item_ids: np.ndarray, offsets: np.ndarray, n_item_rows: int
    ) -> "VerticalIndex":
        """Build from a CSR segment (``offsets`` local, starting at 0)."""
        n = len(offsets) - 1
        n_words = max(1, -(-n // 64))
        matrix = np.zeros((n_item_rows + 1, n_words), dtype=np.uint64)
        if item_ids.size:
            lengths = np.diff(offsets)
            positions = np.repeat(np.arange(n, dtype=np.int64), lengths)
            bits = np.left_shift(
                np.uint64(1), (positions & 63).astype(np.uint64)
            )
            np.bitwise_or.at(
                matrix, (item_ids.astype(np.int64), positions >> 6), bits
            )
        return cls(matrix, n)

    @classmethod
    def from_baskets(
        cls,
        baskets: Sequence[Tuple[Item, ...]],
        n_item_rows: Optional[int] = None,
    ) -> "VerticalIndex":
        """Build from materialized basket tuples (ids need not be dense)."""
        if n_item_rows is None:
            n_item_rows = max((max(b) for b in baskets if b), default=-1) + 1
        flat = np.fromiter(
            (item for basket in baskets for item in basket),
            dtype=np.int32,
            count=sum(len(b) for b in baskets),
        )
        offsets = np.zeros(len(baskets) + 1, dtype=np.int64)
        np.cumsum([len(b) for b in baskets], out=offsets[1:])
        return cls.from_csr(flat, offsets, n_item_rows)

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------

    def _row(self, item: Item) -> np.ndarray:
        if 0 <= item < self.n_item_rows:
            return self._matrix[item]
        return self._matrix[self.n_item_rows]  # zero sentinel

    def bitmap(self, item: Item) -> np.ndarray:
        """The packed bitmap of one item (a read-only view)."""
        return self._row(item)

    def support(self, items: Iterable[Item]) -> int:
        """Transactions containing every item of ``items``."""
        ordered = tuple(items)
        if not ordered:
            return self.n_transactions
        accumulator = self._row(ordered[0])
        for item in ordered[1:]:
            accumulator = accumulator & self._row(item)
        return popcount_sum(accumulator)

    def item_supports(self) -> np.ndarray:
        """Support of every indexed item id (length ``n_item_rows``)."""
        return popcount_rows(self._matrix[: self.n_item_rows])

    def count_candidates(
        self,
        candidates: Sequence[Itemset],
        monitor: Optional[RunMonitor] = None,
        stride: int = _CANDIDATE_STRIDE,
    ) -> Dict[Itemset, int]:
        """Supports of same-size candidates by bitmap intersection.

        Candidates sharing a (k−1)-prefix (the shape Apriori's join step
        emits) are counted as one vectorized block: the prefix bitmap is
        intersected once, then AND-ed against all the last-item bitmaps
        in a single numpy operation.  A monitored call checkpoints every
        ``stride`` candidates, so a budgeted pass stops promptly; the
        caller discards the incomplete pass as usual.
        """
        monitor = monitor or RunMonitor()
        result: Dict[Itemset, int] = {}
        if not candidates:
            return result
        ordered = sorted(candidates, key=lambda c: c.items)
        matrix = self._matrix
        sentinel = self.n_item_rows
        total = len(ordered)
        index = 0
        since_checkpoint = 0
        while index < total:
            prefix = ordered[index].items[:-1]
            stop = index + 1
            while stop < total and ordered[stop].items[:-1] == prefix:
                stop += 1
            accumulator: Optional[np.ndarray] = None
            for item in prefix:
                row = self._row(item)
                accumulator = row if accumulator is None else accumulator & row
            lasts = np.fromiter(
                (
                    c.items[-1] if 0 <= c.items[-1] < sentinel else sentinel
                    for c in ordered[index:stop]
                ),
                dtype=np.int64,
                count=stop - index,
            )
            block = matrix[lasts]
            if accumulator is not None:
                block = block & accumulator
            for candidate, count in zip(ordered[index:stop], popcount_rows(block)):
                result[candidate] = int(count)
            since_checkpoint += stop - index
            if since_checkpoint >= stride:
                since_checkpoint = 0
                monitor.checkpoint()
            index = stop
        return result

    def count_candidates_packed(
        self,
        candidates: Sequence[Itemset],
        monitor: Optional[RunMonitor] = None,
        chunk: int = _PACKED_CHUNK,
    ) -> Dict[Itemset, int]:
        """Supports by fully vectorized block intersection.

        Where :meth:`count_candidates` loops over shared-prefix groups in
        Python, this kernel gathers the item ids of a whole block of
        candidates into an ``(n, k)`` index matrix and intersects one
        *column of items at a time* across the entire block — ``k - 1``
        numpy AND operations plus one popcount per ``chunk`` candidates,
        independent of how the candidates' prefixes fragment.  It wins
        when passes carry many candidates with short shared prefixes
        (large stores, low minsup); counts are exact, so results are
        bit-identical to every other backend.
        """
        monitor = monitor or RunMonitor()
        result: Dict[Itemset, int] = {}
        if not candidates:
            return result
        matrix = self._matrix
        sentinel = self.n_item_rows
        by_size: Dict[int, List[Itemset]] = {}
        for candidate in candidates:
            by_size.setdefault(len(candidate.items), []).append(candidate)
        for k, group in sorted(by_size.items()):
            if k == 0:
                for candidate in group:
                    result[candidate] = self.n_transactions
                continue
            ids = candidate_ids(group, sentinel)
            for start in range(0, len(group), chunk):
                monitor.checkpoint()
                block = ids[start : start + chunk]
                accumulator = matrix[block[:, 0]]
                for column in range(1, k):
                    accumulator &= matrix[block[:, column]]
                counts = popcount_rows(accumulator)
                for candidate, count in zip(group[start : start + chunk], counts):
                    result[candidate] = int(count)
        return result

    def __repr__(self) -> str:
        return (
            f"VerticalIndex(n_transactions={self.n_transactions}, "
            f"n_item_rows={self.n_item_rows}, n_words={self.n_words})"
        )


class UnitIndex:
    """Per-item bitmaps over a run of time units, each unit word-aligned.

    The concatenation of the :class:`VerticalIndex` matrices of the
    indexed units: unit after unit along the word axis, every non-empty
    unit starting on a fresh ``uint64`` word and empty (or not indexed)
    units owning no words.  Because no word straddles two units, the
    per-unit supports of a candidate are the popcount of its
    intersected row reduced over each unit's run of words — no boundary
    masking, and a few vectorized calls for all units at once.

    How that reduction runs is decided once, here: when no unit owns
    more than :data:`_PLANE_WORDS` words, word plane ``p`` (the ``p``-th
    word of every unit at least ``p + 1`` words wide) is gathered and
    added to the units' sums, one plane after another; otherwise
    :func:`numpy.add.reduceat` reduces each unit's run.  Both give the
    same counts.

    Attributes:
        columns: unit offsets (into the ``bounds`` it was built from) of
            the indexed units, ascending.
        sizes: transactions in each indexed unit.
        word_starts: first word column of each indexed unit.
    """

    __slots__ = (
        "_matrix",
        "columns",
        "sizes",
        "word_starts",
        "n_words",
        "n_item_rows",
        "_planes",
    )

    def __init__(self, matrix: np.ndarray, columns: np.ndarray, sizes: np.ndarray):
        self._matrix = matrix
        self.columns = columns
        self.sizes = sizes
        unit_words = (sizes + 63) >> 6
        self.word_starts = np.cumsum(unit_words) - unit_words
        self.n_words = matrix.shape[1]
        self.n_item_rows = matrix.shape[0] - 1  # last row is the zero sentinel
        planes: Optional[List[Tuple[Union[slice, np.ndarray], np.ndarray]]] = None
        widest = int(unit_words.max()) if len(unit_words) else 0
        if widest <= _PLANE_WORDS:
            planes = []
            for plane in range(1, widest):
                wide = np.flatnonzero(unit_words > plane)
                units = slice(None) if len(wide) == len(unit_words) else wide
                planes.append((units, self.word_starts[wide] + plane))
        #: ``(units, words)`` of every word plane after the first — the
        #: units at least that wide and their word in the plane — or
        #: ``None`` when some unit is too wide and ``reduceat`` sums.
        self._planes = planes

    @classmethod
    def from_csr(
        cls,
        item_ids: np.ndarray,
        offsets: np.ndarray,
        bounds: np.ndarray,
        n_item_rows: int,
        live: Optional[np.ndarray] = None,
    ) -> "UnitIndex":
        """Index the units ``bounds`` cuts the CSR columns into.

        Unit ``u`` is transaction positions ``bounds[u]:bounds[u + 1]``
        (absolute, so a shard passes its slice of the boundary array
        unchanged).  ``live`` (boolean, one per unit) restricts the
        index to the units where it is ``True``; only those units'
        transactions are read, so a sparse mask costs in proportion to
        what it selects, not to the store.
        """
        sizes = np.diff(bounds)
        keep = sizes > 0 if live is None else (sizes > 0) & live
        columns = np.flatnonzero(keep)
        sizes = sizes[columns]
        firsts = bounds[columns]
        n_words = int(((sizes + 63) >> 6).sum())
        index = cls(
            np.zeros((n_item_rows + 1, n_words), dtype=np.uint64), columns, sizes
        )
        # Whole units at a time, a slab of transactions per step, so the
        # per-occurrence scratch stays small however large the store.
        ends = np.cumsum(sizes)
        start = 0
        while start < len(sizes):
            reach = ends[start] - sizes[start] + _SLAB_TRANSACTIONS
            stop = max(start + 1, int(np.searchsorted(ends, reach, side="right")))
            units = slice(start, stop)
            index._insert(
                item_ids, offsets, firsts[units], sizes[units], index.word_starts[units]
            )
            start = stop
        return index

    def _insert(
        self,
        item_ids: np.ndarray,
        offsets: np.ndarray,
        firsts: np.ndarray,
        sizes: np.ndarray,
        word_starts: np.ndarray,
    ) -> None:
        """Set the bits of the units starting at ``firsts`` (``sizes`` long)."""
        local = ragged_arange(np.zeros_like(sizes), sizes)
        positions = np.repeat(firsts, sizes) + local
        words = np.repeat(word_starts, sizes) + (local >> 6)
        bits = np.left_shift(np.uint64(1), (local & 63).astype(np.uint64))
        starts = offsets[positions]
        lengths = offsets[positions + 1] - starts
        rows = item_ids[ragged_arange(starts, lengths)].astype(np.int64)
        np.bitwise_or.at(
            self._matrix, (rows, np.repeat(words, lengths)), np.repeat(bits, lengths)
        )

    def select(self, live: np.ndarray) -> "UnitIndex":
        """This index restricted to the units where ``live`` holds.

        The kept units' word columns, copied side by side: no
        transaction is read again, so a masked pass over an index that
        already exists costs a column gather, not a rebuild.
        """
        keep = live[self.columns]
        if keep.all():
            return self
        words = ragged_arange(self.word_starts[keep], (self.sizes[keep] + 63) >> 6)
        return UnitIndex(
            np.take(self._matrix, words, axis=1), self.columns[keep], self.sizes[keep]
        )

    @property
    def n_transactions(self) -> int:
        """Transactions indexed."""
        return int(self.sizes.sum())

    @property
    def nbytes(self) -> int:
        """Bytes held by the bitmap matrix."""
        return self._matrix.nbytes

    def count_into(
        self,
        ids: np.ndarray,
        out: np.ndarray,
        monitor: Optional[RunMonitor] = None,
    ) -> None:
        """Per-unit supports of a pass of candidates, written into ``out``.

        ``ids`` is the ``(n, k >= 1)`` row matrix of :func:`candidate_ids`;
        ``out`` an ``(n, n_units)`` int64 matrix whose :attr:`columns`
        receive the counts (every other column is left as it is).
        Candidates are processed in blocks bounded by
        :data:`_BLOCK_BYTES`: the block's item rows are AND-ed one
        candidate column at a time, popcounted per word and summed per
        unit — plane by plane on an index of narrow units, else by
        :func:`numpy.add.reduceat` over :attr:`word_starts` (strictly
        increasing, because empty units own no words).  A monitored
        call checkpoints once per block and may raise
        :class:`~repro.runtime.budget.RunInterrupted`.
        """
        monitor = monitor or RunMonitor()
        if not self.n_words:
            return
        n, k = ids.shape
        matrix = self._matrix
        block = max(1, _BLOCK_BYTES // (self.n_words * 8))
        for start in range(0, n, block):
            monitor.checkpoint()
            rows = ids[start : start + block]
            accumulator = matrix[rows[:, 0]]
            for column in range(1, k):
                accumulator &= matrix[rows[:, column]]
            per_word = popcount_words(accumulator)
            # Drop the block's bitmaps before the sum allocates its
            # output; no word straddles two units, so each unit's
            # support is the sum over its own run of words.
            del accumulator
            if self._planes is None:
                sums = np.add.reduceat(per_word, self.word_starts, axis=1, dtype=np.int64)
            else:
                # At most _PLANE_WORDS * 64 set bits per unit: uint16 holds it.
                sums = per_word[:, self.word_starts].astype(np.uint16)
                for units, words in self._planes:
                    sums[:, units] += per_word[:, words]
            out[start : start + block, self.columns] = sums

    def __repr__(self) -> str:
        return (
            f"UnitIndex(n_units={len(self.columns)}, "
            f"n_transactions={self.n_transactions}, n_words={self.n_words})"
        )
