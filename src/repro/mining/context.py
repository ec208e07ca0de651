"""Temporal partitioning and shared per-unit support counting.

All three temporal mining tasks view the database as a sequence of *time
units* at a granularity.  :class:`TemporalContext` buckets the
transactions per unit once, and counts a pass of candidate itemsets **in
every unit with one call** over a unit-aligned bitmap index — the
shared-counting optimization that the naive baseline (mine every unit
independently, :mod:`repro.baselines.sequential`) forgoes.

The level-wise :func:`per_unit_frequent_itemsets` is the temporal
analogue of Apriori: an itemset is *locally frequent* in unit ``u`` when
its support within ``D[u]`` meets ``min_support``; candidates for size
k+1 are generated from the union of locally frequent k-itemsets across
units (a superset of the per-unit lattices, hence sound), and an itemset
is kept while it is locally frequent in at least ``min_units`` units —
the temporal anti-monotone prune.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.columnar.backends import Candidates, resolve_backend
from repro.columnar.encoded import EncodedDatabase, EncodedSegment
from repro.columnar.perunit import count_candidates_per_unit, count_items_per_unit
from repro.core.items import Item, Itemset
from repro.core.levels import RowIndex, as_itemsets, as_rows, next_level
from repro.core.transactions import TransactionDatabase
from repro.errors import MiningParameterError, TransactionError
from repro.obs.trace import tracer_of
from repro.runtime.budget import RunInterrupted, RunMonitor
from repro.temporal.granularity import Granularity, unit_label

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.parallel.executor import ShardedExecutor


class TemporalContext:
    """A transaction database partitioned into time units.

    The database's columnar CSR layout
    (:class:`~repro.columnar.encoded.EncodedDatabase`, encoded once per
    database and shared between contexts) is ordered by timestamp, so
    every time unit is a contiguous position range and partitioning
    reduces to computing the per-unit boundary array — no per-unit
    copies.  The partition itself is memoized on the encoding
    (:meth:`~repro.columnar.encoded.EncodedDatabase.units`), so the
    unit-aligned bitmap index the counting passes intersect is built by
    the first pass on that encoding and granularity — whichever context,
    miner or statement runs it — and reused by every later one; per-unit
    basket lists are materialized lazily, only for the units a reference
    backend actually scans.

    Attributes:
        granularity: the unit granularity.
        first_unit / last_unit: absolute unit indices spanning the data.
        encoded: the columnar layout every counting path scans.
    """

    def __init__(
        self,
        database: Union[TransactionDatabase, EncodedDatabase],
        granularity: Granularity,
    ):
        if database.is_empty():
            raise TransactionError("cannot build a temporal context over an empty database")
        self.database = database
        self.encoded = (
            database if isinstance(database, EncodedDatabase) else database.encoded()
        )
        self.granularity = granularity
        self.units = self.encoded.units(granularity)
        self.first_unit, self._bounds = self.units.first_unit, self.units.bounds
        self.last_unit = self.first_unit + len(self._bounds) - 2
        self.unit_sizes = np.diff(self._bounds)

    @property
    def n_units(self) -> int:
        """Number of units spanned (including empty ones)."""
        return self.last_unit - self.first_unit + 1

    @property
    def unit_range(self) -> range:
        """Absolute unit indices covered by the context."""
        return range(self.first_unit, self.last_unit + 1)

    def unit_segment(self, offset: int) -> EncodedSegment:
        """The zero-copy columnar segment of the unit at ``offset``."""
        return self.units.segment(offset)

    def baskets_in_unit(self, offset: int) -> Sequence[Tuple[Item, ...]]:
        """Baskets of the unit at relative ``offset`` (0-based)."""
        return self.unit_segment(offset).baskets()

    def to_offset(self, absolute_unit: int) -> int:
        """Relative offset of an absolute unit index."""
        return absolute_unit - self.first_unit

    def to_absolute(self, offset: int) -> int:
        """Absolute unit index of a relative offset."""
        return offset + self.first_unit

    def label(self, offset: int) -> str:
        """Human-readable label of the unit at ``offset``."""
        return unit_label(self.to_absolute(offset), self.granularity)

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------

    def count_items_matrix(
        self,
        monitor: Optional[RunMonitor] = None,
        executor: Optional["ShardedExecutor"] = None,
    ) -> np.ndarray:
        """Per-unit absolute support of every item: ``(n_items, n_units)``.

        One scan of the unit-aligned index.  A monitored run checks the
        budget at every granule boundary and raises
        :class:`~repro.runtime.budget.RunInterrupted` mid-scan; callers
        treat the level-1 pass as incomplete in that case.

        With an ``executor``, the unit range is sharded across worker
        processes and the per-shard matrices merged in shard order
        (bit-identical to the serial scan); the serial scan
        (:func:`repro.columnar.perunit.count_items_per_unit`) is the
        fallback whenever the executor declines the pass.
        """
        matrix: Optional[np.ndarray] = None
        if executor is not None:
            matrix = executor.count_items(self.encoded, self._bounds, monitor=monitor)
        if matrix is None:
            matrix = count_items_per_unit(self.units, monitor=monitor)
        return matrix

    def count_items_per_unit(
        self,
        monitor: Optional[RunMonitor] = None,
        executor: Optional["ShardedExecutor"] = None,
    ) -> Dict[Item, np.ndarray]:
        """:meth:`count_items_matrix` as item → row, items present somewhere."""
        matrix = self.count_items_matrix(monitor=monitor, executor=executor)
        present = np.flatnonzero(matrix.any(axis=1))
        return {int(item): matrix[item] for item in present}

    def count_level(
        self,
        ids: np.ndarray,
        counting: str = "auto",
        monitor: Optional[RunMonitor] = None,
        executor: Optional["ShardedExecutor"] = None,
    ) -> np.ndarray:
        """Per-unit supports of one level's ``(n, k)`` id matrix, every unit.

        Returns the ``(n, n_units)`` matrix whose rows align with
        ``ids``.  This is the unmasked counting pass every level-wise
        miner runs, and the one the incremental context serves from its
        cache.  Monitor and executor behave as in
        :meth:`count_candidates_per_unit`.
        """
        return self._count_matrix(ids, counting, executor, monitor=monitor)

    def count_candidates_per_unit(
        self,
        candidates: Sequence[Itemset],
        unit_mask: Optional[np.ndarray] = None,
        counting: str = "auto",
        monitor: Optional[RunMonitor] = None,
        executor: Optional["ShardedExecutor"] = None,
    ) -> Dict[Itemset, np.ndarray]:
        """Per-unit supports of ``candidates`` in one scan of the data.

        Args:
            candidates: same-size candidate itemsets.
            unit_mask: optional boolean array (length ``n_units``); units
                where it is ``False`` are skipped entirely — the hook the
                cycle-skipping optimization uses.
            counting: ``"auto"`` or any registered counting backend (see
                :func:`repro.columnar.backends.available_backends`).
            monitor: optional run monitor, checked at every granule
                boundary; raises
                :class:`~repro.runtime.budget.RunInterrupted` mid-scan,
                in which case the returned counts are incomplete and the
                caller must discard the pass.
            executor: optional sharded executor; when it accepts the
                pass, counting fans out across worker processes and the
                merged matrix (deterministic shard order) replaces the
                serial scan bit for bit.
        """
        if not candidates:
            return {}
        if unit_mask is None:
            matrix = self.count_level(
                as_rows(candidates), counting, monitor=monitor, executor=executor
            )
            return {candidate: matrix[row] for row, candidate in enumerate(candidates)}
        return self.count_candidates_masked(
            candidates, None, counting, monitor, executor, unit_mask=unit_mask
        )

    def count_candidates_masked(
        self,
        candidates: Sequence[Itemset],
        candidate_masks: Optional[np.ndarray],
        counting: str = "auto",
        monitor: Optional[RunMonitor] = None,
        executor: Optional["ShardedExecutor"] = None,
        unit_mask: Optional[np.ndarray] = None,
    ) -> Dict[Itemset, np.ndarray]:
        """Per-unit supports with a *per-candidate* unit mask.

        ``candidate_masks`` is a boolean ``(len(candidates), n_units)``
        matrix; candidate ``i`` is only counted in the units where row
        ``i`` is ``True`` — the fine-grained form of cycle skipping the
        interleaved periodicity algorithm relies on (``None`` counts
        every candidate wherever ``unit_mask`` allows).  Masked passes
        produce skip-zeros, not real counts, so they never go through
        :meth:`count_level`.
        """
        if not candidates:
            return {}
        matrix = self._count_matrix(
            candidates,
            counting,
            executor,
            unit_mask=unit_mask,
            candidate_masks=candidate_masks,
            monitor=monitor,
        )
        return {candidate: matrix[row] for row, candidate in enumerate(candidates)}

    def _count_matrix(
        self,
        candidates: Candidates,
        counting: str,
        executor: Optional["ShardedExecutor"],
        unit_mask: Optional[np.ndarray] = None,
        candidate_masks: Optional[np.ndarray] = None,
        monitor: Optional[RunMonitor] = None,
    ) -> np.ndarray:
        """One counting pass as its ``(n_candidates, n_units)`` matrix.

        The backend is resolved once, then the pass is sharded or counted
        by :func:`repro.columnar.perunit.count_candidates_per_unit`.
        """
        backend = resolve_backend(counting)
        matrix: Optional[np.ndarray] = None
        if executor is not None:
            matrix = executor.count_candidates(
                self.encoded,
                self._bounds,
                candidates,
                backend.name,
                unit_mask=unit_mask,
                candidate_masks=candidate_masks,
                monitor=monitor,
            )
        if matrix is None:
            matrix = count_candidates_per_unit(
                self.units,
                candidates,
                backend,
                unit_mask=unit_mask,
                candidate_masks=candidate_masks,
                monitor=monitor,
            )
        return matrix

    def local_min_counts(self, min_support: float) -> np.ndarray:
        """Per-unit absolute thresholds implementing relative min-support.

        Elementwise :func:`repro.core.apriori._min_count` of the unit
        sizes.  Empty units get threshold 1 (unsatisfiable), so nothing
        is locally frequent in them.
        """
        exact = min_support * self.unit_sizes
        return np.maximum(np.ceil(exact - 1e-9), 1).astype(np.int64)


class PerUnitCounts:
    """Per-unit support counts for all retained itemsets, level by level.

    Attributes:
        context: the temporal context counted against.
        levels: one ``(ids, counts)`` pair per itemset size, smallest
            first — ``ids`` the size-``k`` level's sorted ``(n, k)`` id
            matrix (:mod:`repro.core.levels`), ``counts`` its
            ``(n, n_units)`` int64 per-unit supports, row for row.
        min_support: the local (per-unit) relative support threshold used.
        thresholds: ``min_support`` as per-unit absolute counts.
    """

    def __init__(
        self,
        context: TemporalContext,
        levels: List[Tuple[np.ndarray, np.ndarray]],
        min_support: float,
    ):
        self.context = context
        self.levels = levels
        self.min_support = min_support
        self.thresholds = context.local_min_counts(min_support)
        self._counts: Optional[Dict[Itemset, np.ndarray]] = None
        self._indexes: Dict[int, RowIndex] = {}

    @property
    def counts(self) -> Mapping[Itemset, np.ndarray]:
        """Itemset → per-unit counts of every retained itemset.

        Built on first use (level by level, rows in order) — the mining
        tasks themselves read :attr:`levels` and never pay for it.
        """
        if self._counts is None:
            self._counts = {
                itemset: counts[row]
                for ids, counts in self.levels
                for row, itemset in enumerate(as_itemsets(ids))
            }
        return self._counts

    def index(self, k: int) -> RowIndex:
        """Row lookup into the size-``k`` level (memoized)."""
        index = self._indexes.get(k)
        if index is None:
            index = self._indexes[k] = RowIndex(self.levels[k - 1][0])
        return index

    def support_array(self, itemset: Itemset) -> np.ndarray:
        """Per-unit counts for ``itemset`` (zeros when never retained)."""
        k = len(itemset)
        if 0 < k <= len(self.levels):
            row = int(self.index(k).find(as_rows([itemset]))[0])
            if row >= 0:
                return self.levels[k - 1][1][row]
        return np.zeros(self.context.n_units, dtype=np.int64)

    def locally_frequent_mask(self, itemset: Itemset) -> np.ndarray:
        """Boolean per-unit mask: locally frequent at ``min_support``."""
        return self.support_array(itemset) >= self.thresholds

    def __len__(self) -> int:
        return sum(len(ids) for ids, _ in self.levels)


def per_unit_frequent_itemsets(
    context: TemporalContext,
    min_support: float,
    min_units: int = 1,
    max_size: int = 0,
    counting: str = "auto",
    monitor: Optional[RunMonitor] = None,
    executor: Optional["ShardedExecutor"] = None,
) -> PerUnitCounts:
    """Level-wise mining of itemsets locally frequent in >= ``min_units`` units.

    Returns per-unit counts for every retained itemset.  All subsets of a
    retained itemset are retained too (per-unit anti-monotonicity), which
    downstream rule evaluation relies on.  Every level stays an id matrix
    from candidate generation (:func:`repro.core.levels.next_level`)
    through counting (:meth:`TemporalContext.count_level`) to survivor
    selection (one comparison against the per-unit thresholds).

    Args:
        context: the partitioned database.
        min_support: per-unit relative support threshold in (0, 1].
        min_units: survival threshold — an itemset must be locally
            frequent in at least this many units to stay in the search
            (the temporal prune; 1 keeps everything frequent anywhere).
        max_size: cap on itemset size (0 = unbounded).
        counting: per-unit counting strategy.
        monitor: optional run monitor; when the run stops, the pass being
            counted is discarded and only fully-counted levels are
            returned, so every retained count is exact and the result is
            a subset of the unbudgeted run's.
        executor: optional :class:`~repro.parallel.executor.ShardedExecutor`
            fanning every counting pass across worker processes; output
            is bit-identical to the serial run.
    """
    monitor = monitor or RunMonitor()
    if not 0.0 < min_support <= 1.0:
        raise MiningParameterError(f"min_support must be in (0, 1], got {min_support}")
    if min_units < 1:
        raise MiningParameterError(f"min_units must be >= 1, got {min_units}")
    thresholds = context.local_min_counts(min_support)
    levels: List[Tuple[np.ndarray, np.ndarray]] = []
    tracer = tracer_of(monitor)

    def survivors(ids: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        """Commit the rows locally frequent in >= ``min_units`` units."""
        keep = (matrix >= thresholds).sum(axis=1) >= min_units
        ids = ids[keep]
        if len(ids):
            levels.append((ids, matrix[keep]))
        monitor.complete_pass()
        return ids

    try:
        # Level 1: single items in one scan.
        with tracer.span("pass", k=1):
            matrix = context.count_items_matrix(monitor=monitor, executor=executor)
            frontier = survivors(np.arange(len(matrix)).reshape(-1, 1), matrix)

        k = 2
        while len(frontier) and (max_size == 0 or k <= max_size):
            candidates = next_level(frontier)
            if not len(candidates):
                break
            monitor.charge_candidates(len(candidates))
            with tracer.span("pass", k=k, candidates=len(candidates)):
                matrix = context.count_level(
                    candidates, counting=counting, monitor=monitor, executor=executor
                )
                frontier = survivors(candidates, matrix)
            k += 1
    except RunInterrupted:
        # The interrupted pass never reaches ``levels``: an incomplete
        # level-1 scan leaves it empty, an incomplete level-k scan is
        # discarded before its survivors are committed.
        pass
    return PerUnitCounts(context=context, levels=levels, min_support=min_support)
