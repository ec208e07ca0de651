"""Epoch-based dirty tracking and delta re-counting of per-unit supports.

:class:`IncrementalContext` is a :class:`~repro.mining.context.TemporalContext`
that remembers per-unit count rows across runs and, after an append,
re-counts only the *dirty* units — the time units an appended
transaction actually landed in — splicing fresh values into the cached
rows.  Correctness rests on one fact: a per-unit support count is a pure
function of that unit's transactions, so recount-and-splice is
bit-identical to counting every unit from scratch (the differential
suite in ``tests/incremental`` pins this).

Staleness is tracked with *epochs* rather than a single dirty mask:

* the context has a current ``epoch`` (bumped once per append batch by
  :meth:`rebased`) and a per-unit array ``_unit_epochs`` recording the
  epoch at which each unit last changed;
* every cached row carries the epoch it was counted at; the row is
  stale exactly in the units where ``_unit_epochs > row_epoch``.

The cached candidate rows live in one matrix, found by the same int64
row key the Apriori prune uses (one ``searchsorted`` per pass, no
per-candidate dictionary lookups), so a recount splices whole blocks of
rows and columns and an append realigns the cache with a single copy.

Rows cached at different times therefore each see precisely their own
stale set, and there is no "when do we clear the mask" problem — a
recount simply commits the row at the current epoch.  Cache commits
happen only *after* a counting pass returns, so a
:class:`~repro.runtime.budget.RunInterrupted` mid-pass can never poison
the cache with partial counts.

Calls with a ``unit_mask`` or per-candidate masks (the cycle-skipping
paths) bypass the cache entirely: their skipped-unit zeros are not real
counts and must never be committed.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Optional, Tuple, Union

import numpy as np

from repro.columnar.encoded import EncodedDatabase
from repro.columnar.perunit import count_items_per_unit
from repro.core.levels import RowIndex
from repro.core.transactions import TransactionDatabase
from repro.mining.context import TemporalContext
from repro.obs.metrics import MetricsRegistry
from repro.runtime.budget import RunMonitor
from repro.temporal.granularity import Granularity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.parallel.executor import ShardedExecutor


class IncrementalContext(TemporalContext):
    """A temporal context whose per-unit counts survive appends.

    Drop-in compatible with :class:`TemporalContext` — every counting
    method returns exactly what the base class would — plus the
    incremental protocol: :meth:`rebased` folds an append in,
    :meth:`dirty_fraction` feeds the planner's refresh decision, and
    :meth:`reset_cache` falls back to cold counting.
    """

    #: Cap on cached candidate rows; beyond it, new rows are counted but
    #: not retained (a perf valve, never a correctness concern).
    MAX_CACHED_ROWS = 65536

    def __init__(
        self,
        database: Union[TransactionDatabase, EncodedDatabase],
        granularity: Granularity,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(database, granularity)
        self.metrics = metrics
        #: Bumped once per applied append batch.
        self.epoch = 0
        #: Epoch at which each unit last changed (0 = initial load).
        self._unit_epochs = np.zeros(self.n_units, dtype=np.int64)
        self.reset_cache()

    # ------------------------------------------------------------------
    # staleness accounting
    # ------------------------------------------------------------------

    def has_state(self) -> bool:
        """Whether any per-unit counts are cached to delta-maintain."""
        return self._item_matrix is not None

    def dirty_mask(self, row_epoch: int) -> np.ndarray:
        """Boolean per-unit mask: changed since ``row_epoch``."""
        return self._unit_epochs > row_epoch

    def dirty_units(self) -> FrozenSet[int]:
        """Absolute indices of units stale w.r.t. the cached pass-1 counts.

        Every unit counts as dirty while no state is cached.
        """
        if self._item_matrix is None:
            return frozenset(self.unit_range)
        offsets = np.flatnonzero(self.dirty_mask(self._item_epoch))
        return frozenset(self.to_absolute(int(offset)) for offset in offsets)

    def dirty_unit_count(self) -> int:
        if self._item_matrix is None:
            return self.n_units
        return int(np.count_nonzero(self.dirty_mask(self._item_epoch)))

    def dirty_fraction(self) -> float:
        """Fraction of units needing a recount (1.0 while cold)."""
        if not self.n_units:
            return 0.0
        return self.dirty_unit_count() / self.n_units

    def reset_cache(self) -> None:
        """Drop all cached rows — subsequent counting runs cold."""
        #: Cached pass-1 matrix (n_items × n_units) and its commit epoch.
        self._item_matrix: Optional[np.ndarray] = None
        self._item_epoch = -1
        #: Cached candidate rows, per itemset size ``k``: the ``(m, k)`` id
        #: rows and the row of ``_cache`` holding each one's counts (whose
        #: commit epoch is the same row of ``_row_epochs``).  Looked up by
        #: row key (:class:`~repro.core.levels.RowIndex`, built on demand).
        self._rows: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._indexes: Dict[int, RowIndex] = {}
        self._cache = np.zeros((0, self.n_units), dtype=np.int64)
        self._row_epochs = np.zeros(0, dtype=np.int64)

    def cached_row_count(self) -> int:
        return len(self._cache)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def _record_delta(self, dirty_units: int, seconds: float) -> None:
        if self.metrics is None:
            return
        self.metrics.counter(
            "repro_incremental_dirty_units_total",
            "Time units re-counted by the incremental delta path",
        ).inc(dirty_units)
        self.metrics.counter(
            "repro_incremental_delta_seconds_total",
            "Wall seconds spent in incremental delta re-counts",
        ).inc(seconds)

    # ------------------------------------------------------------------
    # counting overrides
    # ------------------------------------------------------------------

    def count_items_matrix(
        self,
        monitor: Optional[RunMonitor] = None,
        executor: Optional["ShardedExecutor"] = None,
    ) -> np.ndarray:
        matrix = self._item_matrix
        if matrix is None:
            matrix = super().count_items_matrix(monitor=monitor, executor=executor)
            self._item_matrix = matrix
            self._item_epoch = self.epoch
            return matrix
        stale = self.dirty_mask(self._item_epoch)
        dirty = int(np.count_nonzero(stale))
        started = perf_counter()
        # The scan ticks every unit, not just the stale ones: a clean
        # unit served from cache is still covered by this pass, and the
        # run report (granules, budget charge, chaos hook) must match a
        # cold run granule for granule.
        recounted = count_items_per_unit(self.units, unit_mask=stale, monitor=monitor)
        if dirty:
            # Commit only after the full recount: RunInterrupted above
            # leaves the previous matrix (and its epoch) untouched.
            fresh = np.zeros_like(recounted)
            fresh[: matrix.shape[0]] = matrix
            fresh[:, stale] = recounted[:, stale]
            self._item_matrix = matrix = fresh
            self._item_epoch = self.epoch
            self._record_delta(dirty, perf_counter() - started)
        return matrix

    def count_level(
        self,
        ids: np.ndarray,
        counting: str = "auto",
        monitor: Optional[RunMonitor] = None,
        executor: Optional["ShardedExecutor"] = None,
    ) -> np.ndarray:
        monitor = monitor or RunMonitor()
        n = len(ids)
        if not n:
            return super().count_level(ids, counting, monitor=monitor, executor=executor)
        slots = self._lookup(ids)

        # One pass over the candidate list ticks every unit exactly once,
        # exactly like the base class's pass — cached units count as
        # covered, and the budget/chaos seam fires per granule here
        # rather than inside the recount calls below (each of which
        # ticks a throwaway monitor of its own), so a warm run's report
        # is granule-identical to a cold one.
        monitor.tick_granules(range(self.n_units))

        cached = np.flatnonzero(slots >= 0)
        commit_epochs = self._row_epochs[slots[cached]]
        for row_epoch in np.unique(commit_epochs):
            stale = self.dirty_mask(int(row_epoch))
            if not stale.any():
                continue
            started = perf_counter()
            members = cached[commit_epochs == row_epoch]
            recounted = self._count_matrix(
                ids[members], counting, executor, unit_mask=stale
            )
            self._cache[np.ix_(slots[members], np.flatnonzero(stale))] = recounted[:, stale]
            self._row_epochs[slots[members]] = self.epoch
            self._record_delta(int(np.count_nonzero(stale)), perf_counter() - started)

        fresh = np.flatnonzero(slots < 0)
        if not fresh.size:
            return self._cache[slots]
        counted = self._count_matrix(ids[fresh], counting, executor)
        if fresh.size == n:
            matrix = counted
        else:
            matrix = self._cache[np.maximum(slots, 0)]
            matrix[fresh] = counted
        self._remember(ids[fresh], counted)
        return matrix

    def _lookup(self, ids: np.ndarray) -> np.ndarray:
        """Cache row of every id row (``-1`` where uncached): one search."""
        k = ids.shape[1]
        cached = self._rows.get(k)
        if cached is None:
            return np.full(len(ids), -1, dtype=np.int64)
        rows, slots = cached
        index = self._indexes.get(k)
        if index is None:
            index = self._indexes[k] = RowIndex(rows)
        found = index.find(ids)
        return np.where(found >= 0, slots[np.maximum(found, 0)], -1)

    def _remember(self, ids: np.ndarray, counted: np.ndarray) -> None:
        """Commit freshly counted rows to the cache, up to the row cap."""
        first = len(self._cache)
        room = max(self.MAX_CACHED_ROWS - first, 0)
        ids, counted = ids[:room], counted[:room]
        if not len(ids):
            return
        k = ids.shape[1]
        slots = np.arange(first, first + len(ids), dtype=np.int64)
        if k in self._rows:
            rows, known = self._rows[k]
            ids, slots = np.concatenate([rows, ids]), np.concatenate([known, slots])
        self._rows[k] = (ids, slots)
        self._indexes.pop(k, None)
        self._cache = np.concatenate([self._cache, counted])
        self._row_epochs = np.concatenate(
            [self._row_epochs, np.full(len(counted), self.epoch, dtype=np.int64)]
        )

    # ------------------------------------------------------------------
    # append protocol
    # ------------------------------------------------------------------

    def rebased(
        self,
        new_encoded: EncodedDatabase,
        touched_units: Iterable[int],
    ) -> "IncrementalContext":
        """A new context over ``new_encoded`` inheriting this cache.

        ``touched_units`` are the *absolute* unit indices containing at
        least one appended transaction; they (and only they) become
        dirty at the new epoch.  Units the append grew the span with but
        left empty stay clean — a zero count is already exact for them.
        Cached rows and the pass-1 matrix are realigned by absolute unit
        index and keep their commit epochs, so each sees exactly the
        units that changed since it was counted.
        """
        clone = IncrementalContext(new_encoded, self.granularity, metrics=self.metrics)
        clone.epoch = self.epoch + 1
        shift = self.first_unit - clone.first_unit
        n_old, n_new = self.n_units, clone.n_units
        if shift < 0 or shift + n_old > n_new:
            # The new span does not cover the old one — appends can only
            # widen the span, so this indicates caller misuse; run cold.
            return clone

        epochs = np.zeros(n_new, dtype=np.int64)
        epochs[shift : shift + n_old] = self._unit_epochs
        for unit in touched_units:
            offset = unit - clone.first_unit
            if 0 <= offset < n_new:
                epochs[offset] = clone.epoch
        clone._unit_epochs = epochs

        if self._item_matrix is not None:
            matrix = np.zeros((new_encoded.n_items, n_new), dtype=np.int64)
            matrix[: self._item_matrix.shape[0], shift : shift + n_old] = self._item_matrix
            clone._item_matrix = matrix
            clone._item_epoch = self._item_epoch
        clone._rows = dict(self._rows)
        clone._cache = np.zeros((len(self._cache), n_new), dtype=np.int64)
        clone._cache[:, shift : shift + n_old] = self._cache
        clone._row_epochs = self._row_epochs.copy()
        return clone
