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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.columnar.backends import resolve_backend
from repro.columnar.encoded import EncodedDatabase, EncodedSegment, EncodedUnits
from repro.columnar.perunit import count_candidates_per_unit, count_items_per_unit
from repro.core.apriori import generate_candidates
from repro.core.items import Item, Itemset
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
    copies.  The unit-aligned bitmap index the counting passes
    intersect is built by the first pass that needs it and reused by
    every later one; per-unit basket lists are materialized lazily,
    only for the units a reference backend actually scans.

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
        self.first_unit, self._bounds = self.encoded.unit_bounds(granularity)
        self.last_unit = self.first_unit + len(self._bounds) - 2
        self.unit_sizes = np.diff(self._bounds)
        self.units = EncodedUnits(self.encoded, self._bounds)

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

    def count_items_per_unit(
        self,
        monitor: Optional[RunMonitor] = None,
        executor: Optional["ShardedExecutor"] = None,
    ) -> Dict[Item, np.ndarray]:
        """Per-unit absolute support of every single item (one scan).

        A monitored run checks the budget at every granule boundary and
        raises :class:`~repro.runtime.budget.RunInterrupted` mid-scan;
        callers treat the level-1 pass as incomplete in that case.

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
        present = np.flatnonzero(matrix.any(axis=1))
        return {int(item): matrix[item] for item in present}

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
        every candidate wherever ``unit_mask`` allows).

        This is the one counting pass behind both public methods; see
        :meth:`_count_matrix` for how it is carried out.
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
        candidates: Sequence[Itemset],
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


@dataclass
class PerUnitCounts:
    """Per-unit support counts for all retained itemsets.

    Attributes:
        context: the temporal context counted against.
        counts: itemset → int64 array of per-unit absolute supports.
        min_support: the local (per-unit) relative support threshold used.
        thresholds: ``min_support`` as per-unit absolute counts.
    """

    context: TemporalContext
    counts: Dict[Itemset, np.ndarray]
    min_support: float
    thresholds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.thresholds = self.context.local_min_counts(self.min_support)

    def support_array(self, itemset: Itemset) -> np.ndarray:
        """Per-unit counts for ``itemset`` (zeros when never retained)."""
        row = self.counts.get(itemset)
        if row is None:
            return np.zeros(self.context.n_units, dtype=np.int64)
        return row

    def locally_frequent_mask(self, itemset: Itemset) -> np.ndarray:
        """Boolean per-unit mask: locally frequent at ``min_support``."""
        return self.support_array(itemset) >= self.thresholds

    def __len__(self) -> int:
        return len(self.counts)


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
    downstream rule evaluation relies on.

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
    if not 0.0 < min_support <= 1.0:
        raise MiningParameterError(f"min_support must be in (0, 1], got {min_support}")
    if min_units < 1:
        raise MiningParameterError(f"min_units must be >= 1, got {min_units}")
    thresholds = context.local_min_counts(min_support)
    retained: Dict[Itemset, np.ndarray] = {}
    tracer = tracer_of(monitor)

    try:
        # Level 1: single items in one scan.
        with tracer.span("pass", k=1):
            item_counts = context.count_items_per_unit(
                monitor=monitor, executor=executor
            )
            frontier: List[Itemset] = []
            for item, row in item_counts.items():
                frequent_units = int(np.count_nonzero(row >= thresholds))
                if frequent_units >= min_units:
                    singleton = Itemset((item,))
                    retained[singleton] = row
                    frontier.append(singleton)
            frontier.sort()
            if monitor is not None:
                monitor.complete_pass()

        k = 2
        while frontier and (max_size == 0 or k <= max_size):
            candidates = generate_candidates(frontier)
            if not candidates:
                break
            if monitor is not None:
                monitor.charge_candidates(len(candidates))
            with tracer.span("pass", k=k, candidates=len(candidates)):
                counted = context.count_candidates_per_unit(
                    candidates, counting=counting, monitor=monitor, executor=executor
                )
                frontier = []
                for itemset, row in counted.items():
                    frequent_units = int(np.count_nonzero(row >= thresholds))
                    if frequent_units >= min_units:
                        retained[itemset] = row
                        frontier.append(itemset)
                frontier.sort()
                if monitor is not None:
                    monitor.complete_pass()
            k += 1
    except RunInterrupted:
        # The interrupted pass never touched ``retained``: an incomplete
        # level-1 scan leaves it empty, an incomplete level-k scan is
        # discarded before its survivors are committed.
        pass
    return PerUnitCounts(context=context, counts=retained, min_support=min_support)
