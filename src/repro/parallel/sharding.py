"""Partitioning an encoded database into contiguous shards.

The parallel executor's unit of distribution is a *shard*: a contiguous
range of time units (equivalently, because encoded transactions are
ordered by timestamp, a contiguous transaction position range).  Shards
are planned once per pass from the context's per-unit boundary array and
balanced by transaction count, not unit count — a handful of heavy units
(a holiday sales spike) would otherwise serialize the whole pass behind
one worker.

Shard planning is a pure function of its inputs, so a plan is
deterministic: the same database, granularity and worker count always
produce the same shards, which is what makes the merged counts
bit-identical to the serial scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


@dataclass(frozen=True)
class ShardSpec:
    """One contiguous slice of a temporal context's unit range.

    Attributes:
        index: shard position in the plan (the deterministic merge order).
        unit_lo / unit_hi: relative unit offsets covered, ``hi`` exclusive.
        pos_lo / pos_hi: transaction position range, ``hi`` exclusive.
    """

    index: int
    unit_lo: int
    unit_hi: int
    pos_lo: int
    pos_hi: int

    @property
    def n_units(self) -> int:
        return self.unit_hi - self.unit_lo

    @property
    def n_transactions(self) -> int:
        return self.pos_hi - self.pos_lo


def plan_shards(bounds: Sequence[int], workers: int) -> List[ShardSpec]:
    """Split a unit-boundary array into <= ``workers`` balanced shards.

    ``bounds`` is the per-unit position boundary array of a
    :class:`~repro.mining.context.TemporalContext` (one entry per unit
    edge).  Cuts land on unit edges closest to the ideal equal-work
    positions, so every shard is a whole number of units and the shard
    transaction counts are as even as unit granularity allows.  Fewer
    shards than ``workers`` come back when the data cannot be split that
    finely (few units, or heavily skewed ones).
    """
    edges = np.asarray(bounds, dtype=np.int64)
    n_units = len(edges) - 1
    if n_units <= 0:
        return []
    workers = max(1, min(workers, n_units))
    total = int(edges[-1] - edges[0])
    targets = [edges[0] + (total * i) // workers for i in range(1, workers)]
    cut_offsets = np.searchsorted(edges, targets, side="left")
    unit_edges = sorted({0, *(int(c) for c in cut_offsets), n_units})
    if unit_edges[0] != 0:
        unit_edges.insert(0, 0)
    shards = []
    for index, (lo, hi) in enumerate(zip(unit_edges, unit_edges[1:])):
        shards.append(
            ShardSpec(
                index=index,
                unit_lo=lo,
                unit_hi=hi,
                pos_lo=int(edges[lo]),
                pos_hi=int(edges[hi]),
            )
        )
    return shards

