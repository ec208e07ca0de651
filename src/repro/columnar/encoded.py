"""The dense-encoded, CSR-layout transaction database.

:class:`EncodedDatabase` stores an ordered transaction history as four
parallel columns instead of Python objects:

* ``item_ids`` — one flat ``int32`` array of every item occurrence,
  basket by basket, each basket sorted and deduplicated;
* ``offsets`` — ``int64`` CSR offsets (``offsets[t]:offsets[t+1]`` is
  transaction ``t``'s slice of ``item_ids``);
* ``tids`` / ``timestamps`` — per-transaction identifiers and instants;
* ``stamps`` — the instants again as a ``datetime64[us]`` column, which
  is what unit boundaries are computed from (no per-transaction Python).

Transactions are ordered by (timestamp, tid), so any time range — in
particular one granularity unit — is a contiguous position range, and
slicing it (:meth:`EncodedDatabase.segment`) is zero-copy.  The layout
is what the whole mining stack scans and the only in-memory form on the
serving path; :class:`~repro.core.transactions.Transaction` objects exist
only behind the library's construction API.
"""

from __future__ import annotations

import weakref
from datetime import datetime
from itertools import chain, compress
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.bitmaps import UnitIndex, VerticalIndex
from repro.core.items import Item, ItemCatalog
from repro.errors import TransactionError
from repro.temporal.granularity import Granularity, stamp_column, unit_indices


class EncodedDatabase:
    """Transactions in columnar CSR form, ordered by (timestamp, tid)."""

    __slots__ = (
        "item_ids",
        "offsets",
        "tids",
        "timestamps",
        "stamps",
        "catalog",
        "_n_items",
        "_stats",
        "_units",
        "__weakref__",
    )

    def __init__(
        self,
        item_ids: np.ndarray,
        offsets: np.ndarray,
        tids: np.ndarray,
        timestamps: Tuple[datetime, ...],
        catalog: Optional[ItemCatalog] = None,
        stamps: Optional[np.ndarray] = None,
    ):
        self.item_ids = item_ids
        self.offsets = offsets
        self.tids = tids
        self.timestamps = timestamps
        #: ``timestamps`` as ``datetime64[us]``; derived here unless the
        #: caller already holds the column (an append extends it).
        self.stamps = stamps if stamps is not None else stamp_column(timestamps)
        self.catalog = catalog if catalog is not None else ItemCatalog()
        highest = int(item_ids.max()) + 1 if item_ids.size else 0
        self._n_items = max(highest, len(self.catalog))
        #: Planner statistics memo (see :func:`repro.planner.stats_of_encoded`);
        #: safe to cache here because the layout is immutable once built.
        self._stats = None
        #: Time-unit partitions by granularity (see :meth:`units`), for
        #: the same reason.
        self._units: Dict[Granularity, "EncodedUnits"] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_database(cls, database) -> "EncodedDatabase":
        """Encode an in-memory :class:`TransactionDatabase` (one scan)."""
        sizes: List[int] = []
        tids: List[int] = []
        stamps: List[datetime] = []
        chunks: List[Tuple[Item, ...]] = []
        for transaction in database:  # iteration yields (timestamp, tid) order
            items = transaction.items.items
            sizes.append(len(items))
            tids.append(transaction.tid)
            stamps.append(transaction.timestamp)
            chunks.append(items)
        flat = np.fromiter(
            chain.from_iterable(chunks), dtype=np.int32, count=sum(sizes)
        )
        offsets = np.zeros(len(chunks) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return cls(
            flat,
            offsets,
            np.asarray(tids, dtype=np.int64),
            tuple(stamps),
            catalog=database.catalog,
        )

    @classmethod
    def from_baskets(
        cls,
        baskets: Iterable[Tuple[int, datetime, Sequence[Item]]],
        catalog: Optional[ItemCatalog] = None,
    ) -> "EncodedDatabase":
        """Build from ``(tid, timestamp, item_ids)`` triples.

        The triples must already be ordered by (timestamp, tid) — the
        order a ``SELECT ... ORDER BY ts, tid`` emits; item ids within a
        basket are sorted and deduplicated here.
        """
        sizes: List[int] = []
        tids: List[int] = []
        stamps: List[datetime] = []
        chunks: List[Tuple[Item, ...]] = []
        previous: Optional[datetime] = None
        for tid, stamp, ids in baskets:
            if previous is not None and stamp < previous:
                raise TransactionError(
                    "from_baskets requires (timestamp, tid) ordered input"
                )
            previous = stamp
            unique = tuple(sorted(set(ids)))
            sizes.append(len(unique))
            tids.append(tid)
            stamps.append(stamp)
            chunks.append(unique)
        flat = np.fromiter(
            chain.from_iterable(chunks), dtype=np.int32, count=sum(sizes)
        )
        offsets = np.zeros(len(chunks) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return cls(
            flat,
            offsets,
            np.asarray(tids, dtype=np.int64),
            tuple(stamps),
            catalog=catalog,
        )

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_items(self) -> int:
        """Size of the dense item universe (max id + 1, or catalog size)."""
        return self._n_items

    def is_empty(self) -> bool:
        return len(self) == 0

    def time_span(self) -> Tuple[datetime, datetime]:
        """(earliest, latest) timestamps; raises on an empty database."""
        if not self.timestamps:
            raise TransactionError("time_span() on an empty encoded database")
        return self.timestamps[0], self.timestamps[-1]

    def average_transaction_size(self) -> float:
        if len(self) == 0:
            return 0.0
        return float(self.offsets[-1]) / len(self)

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------

    def basket(self, position: int) -> Tuple[Item, ...]:
        """The (sorted) item-id tuple of the transaction at ``position``."""
        lo, hi = self.offsets[position], self.offsets[position + 1]
        return tuple(int(item) for item in self.item_ids[lo:hi])

    def iter_baskets(
        self, lo: int = 0, hi: Optional[int] = None
    ) -> Iterator[Tuple[Item, ...]]:
        """Basket tuples of the position range ``[lo, hi)``."""
        hi = len(self) if hi is None else hi
        for position in range(lo, hi):
            yield self.basket(position)

    # ------------------------------------------------------------------
    # counting and slicing
    # ------------------------------------------------------------------

    def item_frequencies(self, lo: int = 0, hi: Optional[int] = None) -> Dict[Item, int]:
        """Absolute support of every item in ``[lo, hi)`` (one bincount)."""
        hi = len(self) if hi is None else hi
        segment = self.item_ids[self.offsets[lo] : self.offsets[hi]]
        counts = np.bincount(segment, minlength=0)
        return {
            int(item): int(count)
            for item, count in enumerate(counts)
            if count
        }

    def unit_offsets(self, granularity: Granularity) -> np.ndarray:
        """Absolute unit index of every transaction (nondecreasing)."""
        return unit_indices(self.stamps, granularity)

    def unit_bounds(self, granularity: Granularity) -> Tuple[int, np.ndarray]:
        """Per-unit position boundaries at ``granularity``.

        Returns ``(first_unit, bounds)`` where ``bounds`` has one entry
        per unit edge: unit offset ``u`` covers transaction positions
        ``bounds[u]:bounds[u + 1]`` — empty units included, no copying.
        """
        if len(self) == 0:
            raise TransactionError("unit_bounds() on an empty encoded database")
        units = self.unit_offsets(granularity)
        first_unit = int(units[0])
        last_unit = int(units[-1])
        edges = np.arange(first_unit, last_unit + 2, dtype=np.int64)
        bounds = np.searchsorted(units, edges, side="left")
        return first_unit, bounds

    def units(self, granularity: Granularity) -> "EncodedUnits":
        """The partition of this database into ``granularity`` units (memoized).

        One :class:`EncodedUnits` per granularity, kept on the encoding:
        every context, miner and TML ``MINE`` over this encoding shares
        its boundary array and the unit-aligned bitmap index it builds
        on first use.  The memo dies with the encoding, so an append
        (a new encoding) or a :meth:`select` restriction starts empty.
        The partition refers back to the encoding through a weak proxy,
        so no reference cycle keeps a replaced encoding's indexes alive
        until the cyclic collector runs; hold the encoding, not only the
        partition.  There is no lock: two threads racing to fill a slot
        (or the partition's index) each build identical arrays and one
        copy is kept, which costs a duplicate build and nothing else.
        """
        units = self._units.get(granularity)
        if units is None:
            first_unit, bounds = self.unit_bounds(granularity)
            units = self._units.setdefault(
                granularity, EncodedUnits(weakref.proxy(self), bounds, first_unit)
            )
        return units

    def select(self, mask: np.ndarray) -> "EncodedDatabase":
        """The transactions where the boolean row ``mask`` holds (catalog shared)."""
        sizes = np.diff(self.offsets)
        offsets = np.zeros(int(np.count_nonzero(mask)) + 1, dtype=np.int64)
        np.cumsum(sizes[mask], out=offsets[1:])
        return EncodedDatabase(
            self.item_ids[np.repeat(mask, sizes)],
            offsets,
            self.tids[mask],
            tuple(compress(self.timestamps, mask.tolist())),
            catalog=self.catalog,
            stamps=self.stamps[mask],
        )

    def segment(self, lo: int = 0, hi: Optional[int] = None) -> "EncodedSegment":
        """A zero-copy view of the position range ``[lo, hi)``."""
        hi = len(self) if hi is None else hi
        return EncodedSegment(self, lo, hi)

    def __repr__(self) -> str:
        return (
            f"EncodedDatabase(n={len(self)}, n_items={self.n_items}, "
            f"occurrences={int(self.offsets[-1])})"
        )


class EncodedSegment:
    """A contiguous transaction range of an :class:`EncodedDatabase`.

    This is the unit of work handed to counting backends: horizontal
    backends iterate :meth:`baskets`, the vertical backend intersects
    the cached :meth:`vertical` bitmap index.  Both views are built
    lazily and cached — the bitmap index in particular is built once per
    segment and reused by every Apriori pass.
    """

    __slots__ = ("encoded", "lo", "hi", "_baskets", "_vertical")

    def __init__(self, encoded: EncodedDatabase, lo: int, hi: int):
        self.encoded = encoded
        self.lo = lo
        self.hi = hi
        self._baskets: Optional[List[Tuple[Item, ...]]] = None
        self._vertical: Optional[VerticalIndex] = None

    def __len__(self) -> int:
        return self.hi - self.lo

    def baskets(self) -> List[Tuple[Item, ...]]:
        """Materialized basket tuples of this segment (cached)."""
        if self._baskets is None:
            self._baskets = list(self.encoded.iter_baskets(self.lo, self.hi))
        return self._baskets

    def vertical(self) -> VerticalIndex:
        """The per-item bitmap index of this segment (cached)."""
        if self._vertical is None:
            encoded = self.encoded
            start = encoded.offsets[self.lo]
            stop = encoded.offsets[self.hi]
            local_offsets = encoded.offsets[self.lo : self.hi + 1] - start
            self._vertical = VerticalIndex.from_csr(
                encoded.item_ids[start:stop], local_offsets, encoded.n_items
            )
        return self._vertical

    def __repr__(self) -> str:
        return f"EncodedSegment(lo={self.lo}, hi={self.hi}, n={len(self)})"


class EncodedUnits:
    """An :class:`EncodedDatabase` cut into time units by a boundary array.

    Unit ``u`` is the transaction positions ``bounds[u]:bounds[u + 1]``
    (empty units included), absolute unit ``first_unit + u``.  This is
    what a per-unit counting pass is handed — the whole partition
    (:meth:`EncodedDatabase.units`, shared by every
    :class:`~repro.mining.context.TemporalContext` on the encoding), a
    slice of the boundary array for a shard worker.  Like
    :class:`EncodedSegment` it owns the lazily built, pass-invariant
    views of its data: the unit-aligned bitmap index every bitmap pass
    intersects, and the per-unit segments the reference backends scan.
    """

    __slots__ = ("encoded", "bounds", "first_unit", "_index", "_segments")

    def __init__(self, encoded: EncodedDatabase, bounds: np.ndarray, first_unit: int = 0):
        self.encoded = encoded
        self.bounds = bounds
        self.first_unit = first_unit
        self._index: Optional[UnitIndex] = None
        self._segments: Dict[int, EncodedSegment] = {}

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def segment(self, unit: int) -> EncodedSegment:
        """The zero-copy segment of the unit at offset ``unit`` (cached)."""
        segment = self._segments.get(unit)
        if segment is None:
            segment = self._segments[unit] = self.encoded.segment(
                int(self.bounds[unit]), int(self.bounds[unit + 1])
            )
        return segment

    def index(self, live: Optional[np.ndarray] = None) -> UnitIndex:
        """The unit-aligned bitmap index of the units where ``live`` holds.

        The index of *all* units is built once and kept: every unmasked
        pass reuses it, and a mask that drops units selects its word
        columns.  Only when no full index exists yet (the dirty recount
        on a freshly rebased context) is a masked index built from the
        CSR columns — from the live units' transactions alone, so its
        cost follows the mask, not the store — and that one is not
        retained.
        """
        encoded = self.encoded
        columns = (encoded.item_ids, encoded.offsets, self.bounds, encoded.n_items)
        if live is not None and not live.all():
            if self._index is not None:
                return self._index.select(live)
            return UnitIndex.from_csr(*columns, live)
        if self._index is None:
            self._index = UnitIndex.from_csr(*columns)
        return self._index

    def __repr__(self) -> str:
        return f"EncodedUnits(n_units={len(self)}, n={len(self.encoded)})"
