"""The per-unit support counts every temporal task reduces to.

A granularity cuts the (timestamp-ordered) encoded database into
contiguous position ranges, one per time unit
(:class:`~repro.columnar.encoded.EncodedUnits`).  The two functions here
are the only per-unit counting entry points: one counts single items
(the per-unit popcounts of the unit-aligned index's rows), one counts a
pass of candidates through a backend's
:meth:`~repro.columnar.backends.CountingBackend.count_units`.  Neither
loops over units in Python.  The serial
:class:`~repro.mining.context.TemporalContext` calls them on the whole
partition, a shard worker on its slice of the boundary array.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.columnar.backends import Candidates, CountingBackend
from repro.columnar.encoded import EncodedUnits
from repro.runtime.budget import RunMonitor


def count_items_per_unit(
    units: EncodedUnits,
    unit_mask: Optional[np.ndarray] = None,
    monitor: Optional[RunMonitor] = None,
) -> np.ndarray:
    """Per-unit support of every single item: an ``(n_items, n_units)`` matrix.

    The per-unit popcounts of the unit-aligned index's own rows — the
    index the candidate passes that follow intersect, so level 1 reads
    no transaction a second time.  Units where ``unit_mask`` is
    ``False`` are not indexed and stay zero.  A monitor is ticked once
    for every unit (masked or not) before the scan and may raise
    :class:`~repro.runtime.budget.RunInterrupted`.
    """
    monitor = monitor or RunMonitor()
    n_items = units.encoded.n_items
    monitor.tick_granules(range(len(units)))
    live = None if unit_mask is None else np.asarray(unit_mask, dtype=bool)
    matrix = np.zeros((n_items, len(units)), dtype=np.int64)
    units.index(live).count_into(
        np.arange(n_items, dtype=np.int64).reshape(-1, 1), matrix, monitor=monitor
    )
    return matrix


def count_candidates_per_unit(
    units: EncodedUnits,
    candidates: Candidates,
    backend: CountingBackend,
    unit_mask: Optional[np.ndarray] = None,
    candidate_masks: Optional[np.ndarray] = None,
    monitor: Optional[RunMonitor] = None,
) -> np.ndarray:
    """Per-unit support of same-size ``candidates`` (itemsets or an id matrix).

    Returns an ``(n_candidates, n_units)`` matrix whose rows align with
    ``candidates``.  ``unit_mask`` (boolean, length ``n_units``) skips
    whole units; ``candidate_masks`` (boolean, ``(n_candidates,
    n_units)``) restricts each candidate to its own live units — the
    coarse and fine forms of cycle skipping.  Skipped cells stay zero,
    and a unit no candidate is live in is not scanned at all.  A monitor
    is ticked once for every unit (masked or not) before the scan and
    handed to the backend, so it may raise
    :class:`~repro.runtime.budget.RunInterrupted` mid-pass; the caller
    then discards the pass.
    """
    monitor = monitor or RunMonitor()
    n_units = len(units)
    if not len(candidates):
        return np.zeros((0, n_units), dtype=np.int64)
    monitor.tick_granules(range(n_units))
    live = None if unit_mask is None else np.asarray(unit_mask, dtype=bool)
    if candidate_masks is not None:
        wanted = candidate_masks.any(axis=0)
        live = wanted if live is None else live & wanted
    matrix = backend.count_units(candidates, units, live, monitor=monitor)
    if candidate_masks is not None:
        matrix *= candidate_masks
    return matrix
