"""The per-unit support counts every temporal task reduces to.

A granularity cuts the (timestamp-ordered) encoded database into
contiguous position ranges, one per time unit, described by a boundary
array ``bounds`` (unit ``u`` is positions ``bounds[u]:bounds[u + 1]``).
The two functions here are the only loops over those units: one
bincounts single items, one dispatches a counting backend per unit.
The serial :class:`~repro.mining.context.TemporalContext` calls them on
the whole boundary array, a shard worker on its slice of it.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.backends import CountingBackend
from repro.columnar.encoded import EncodedDatabase, EncodedSegment
from repro.core.items import Itemset
from repro.runtime.budget import RunMonitor

#: ``(lo, hi)`` position range -> its segment; callers keep one per
#: encoded database so a unit's bitmap index is built once and reused
#: by every pass.
SegmentCache = Dict[Tuple[int, int], EncodedSegment]


def count_items_per_unit(
    encoded: EncodedDatabase,
    bounds: np.ndarray,
    unit_mask: Optional[np.ndarray] = None,
    monitor: Optional[RunMonitor] = None,
) -> np.ndarray:
    """Per-unit support of every single item: an ``(n_items, n_units)`` matrix.

    One :func:`numpy.bincount` per unit over the unit's contiguous
    ``item_ids`` slice.  Units where ``unit_mask`` is ``False`` are left
    zero.  A monitor is ticked at every unit (masked or not) and may
    raise :class:`~repro.runtime.budget.RunInterrupted` mid-scan.
    """
    n_units = len(bounds) - 1
    n_items = encoded.n_items
    matrix = np.zeros((n_items, n_units), dtype=np.int64)
    ids = encoded.item_ids
    offsets = encoded.offsets
    for unit in range(n_units):
        if monitor is not None:
            monitor.tick_granule(unit)
        if unit_mask is not None and not unit_mask[unit]:
            continue
        lo, hi = bounds[unit], bounds[unit + 1]
        if hi > lo:
            matrix[:, unit] = np.bincount(
                ids[offsets[lo] : offsets[hi]], minlength=n_items
            )
    return matrix


def count_candidates_per_unit(
    encoded: EncodedDatabase,
    bounds: np.ndarray,
    candidates: Sequence[Itemset],
    backend: CountingBackend,
    unit_mask: Optional[np.ndarray] = None,
    candidate_masks: Optional[np.ndarray] = None,
    monitor: Optional[RunMonitor] = None,
    segments: Optional[SegmentCache] = None,
) -> np.ndarray:
    """Per-unit support of same-size ``candidates``.

    Returns an ``(n_candidates, n_units)`` matrix whose rows align with
    ``candidates``.  ``unit_mask`` (boolean, length ``n_units``) skips
    whole units; ``candidate_masks`` (boolean, ``(n_candidates,
    n_units)``) restricts each candidate to its own live units — the
    coarse and fine forms of cycle skipping.  Skipped cells stay zero.
    A monitor is ticked at every unit and handed to the backend, so it
    may raise :class:`~repro.runtime.budget.RunInterrupted` mid-scan;
    the caller then discards the pass.
    """
    n_units = len(bounds) - 1
    matrix = np.zeros((len(candidates), n_units), dtype=np.int64)
    if not candidates:
        return matrix
    if segments is None:
        segments = {}
    row_of = {candidate: row for row, candidate in enumerate(candidates)}
    for unit in range(n_units):
        if monitor is not None:
            monitor.tick_granule(unit)
        if unit_mask is not None and not unit_mask[unit]:
            continue
        lo, hi = int(bounds[unit]), int(bounds[unit + 1])
        if hi <= lo:
            continue
        active = candidates
        if candidate_masks is not None:
            active = [candidates[row] for row in np.flatnonzero(candidate_masks[:, unit])]
            if not active:
                continue
        segment = segments.get((lo, hi))
        if segment is None:
            segment = segments[(lo, hi)] = encoded.segment(lo, hi)
        counted = backend.count_pass(active, segment, monitor=monitor)
        for itemset, count in counted.items():
            if count:
                matrix[row_of[itemset], unit] = count
    return matrix
