"""Append-friendly maintenance of the CSR columnar layout.

:class:`~repro.columnar.encoded.EncodedDatabase` is immutable once built
(downstream memos depend on that), so an append produces a *new*
encoded database sharing as much of the old one as the ordering
invariant allows:

* when every new transaction sorts after the existing tail — the common
  streaming case — the four columns are extended by pure concatenation
  (``O(batch)`` plus one copy of the old arrays, no Python-level work on
  old rows);
* out-of-order batches fall back to a stable merge by (timestamp, tid)
  that copies old rows in contiguous *runs* between insertion points,
  never basket by basket.

Either way the result is exactly what
:meth:`EncodedDatabase.from_database` would produce over the merged
transaction set — the property suite pins this array-for-array.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from datetime import datetime
from typing import FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.columnar.encoded import EncodedDatabase
from repro.core.items import Item
from repro.errors import TransactionError
from repro.temporal.granularity import Granularity, stamp_column, unit_indices

#: One appended transaction: ``(tid, timestamp, item_ids)``.
AppendTriple = Tuple[int, datetime, Sequence[Item]]


@dataclass(frozen=True)
class AppendResult:
    """Outcome of folding one batch into an encoded database.

    Attributes:
        encoded: the new (immutable) encoded database.
        appended: number of transactions folded in.
        in_order: whether the tail fast path applied (every new
            transaction sorted after the existing data).
        timestamps: timestamps of the appended transactions.
    """

    encoded: EncodedDatabase
    appended: int
    in_order: bool
    timestamps: Tuple[datetime, ...] = field(default=())

    def touched_units(self, granularity: Granularity) -> FrozenSet[int]:
        """Absolute unit indices containing at least one new transaction."""
        units = unit_indices(stamp_column(self.timestamps), granularity)
        return frozenset(np.unique(units).tolist())


def _normalize(batch: Sequence[AppendTriple]):
    """Sort the batch by (timestamp, tid) and sort/dedupe each basket."""
    entries = []
    for tid, stamp, ids in batch:
        unique = tuple(sorted(set(int(item) for item in ids)))
        if not unique:
            raise TransactionError(f"cannot append an empty transaction (tid={tid})")
        entries.append((stamp, int(tid), unique))
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    return entries


def _flatten(chunks: Sequence[Tuple[Item, ...]]) -> Tuple[np.ndarray, np.ndarray]:
    """(flat int32 item ids, int64 sizes) of basket chunks."""
    sizes = np.fromiter((len(chunk) for chunk in chunks), dtype=np.int64, count=len(chunks))
    flat = np.fromiter(
        (item for chunk in chunks for item in chunk),
        dtype=np.int32,
        count=int(sizes.sum()),
    )
    return flat, sizes


def append_encoded(encoded: EncodedDatabase, batch: Sequence[AppendTriple]) -> AppendResult:
    """Fold ``batch`` triples into ``encoded``, returning a new database.

    ``batch`` entries are ``(tid, timestamp, item_ids)``; any order is
    accepted, item ids are sorted and deduplicated per basket.  The
    input database is never mutated.  New item ids beyond the current
    universe grow ``n_items`` exactly as a fresh encode would.
    """
    entries = _normalize(batch)
    if not entries:
        return AppendResult(encoded=encoded, appended=0, in_order=True)
    new_stamps = tuple(stamp for stamp, _, _ in entries)
    new_tids = np.fromiter((tid for _, tid, _ in entries), dtype=np.int64, count=len(entries))
    new_chunks = [chunk for _, _, chunk in entries]
    flat, sizes = _flatten(new_chunks)

    n_old = len(encoded)
    in_order = n_old == 0 or (
        (new_stamps[0], int(new_tids[0]))
        > (encoded.timestamps[-1], int(encoded.tids[-1]))
    )
    if in_order:
        item_ids = np.concatenate([encoded.item_ids, flat])
        offsets = np.concatenate(
            [encoded.offsets, encoded.offsets[-1] + np.cumsum(sizes)]
        )
        tids = np.concatenate([encoded.tids, new_tids])
        merged = EncodedDatabase(
            item_ids.astype(np.int32, copy=False),
            offsets.astype(np.int64, copy=False),
            tids,
            encoded.timestamps + new_stamps,
            catalog=encoded.catalog,
            stamps=np.concatenate([encoded.stamps, stamp_column(new_stamps)]),
        )
        return AppendResult(
            encoded=merged, appended=len(entries), in_order=True, timestamps=new_stamps
        )

    # Out-of-order: stable merge by (timestamp, tid).  New entries with a
    # key equal to an existing one land *after* it (arrival order), and
    # old rows are copied in contiguous runs between insertion points.
    old_keys: List[Tuple[datetime, int]] = [
        (encoded.timestamps[position], int(encoded.tids[position]))
        for position in range(n_old)
    ]
    n_total = n_old + len(entries)
    out_sizes = np.empty(n_total, dtype=np.int64)
    out_tids = np.empty(n_total, dtype=np.int64)
    out_stamps: List[datetime] = []
    pieces: List[np.ndarray] = []
    old_sizes = np.diff(encoded.offsets)

    out = 0
    old_pos = 0

    def copy_old_run(until: int) -> None:
        nonlocal out, old_pos
        if until <= old_pos:
            return
        run = until - old_pos
        pieces.append(
            encoded.item_ids[encoded.offsets[old_pos] : encoded.offsets[until]]
        )
        out_sizes[out : out + run] = old_sizes[old_pos:until]
        out_tids[out : out + run] = encoded.tids[old_pos:until]
        out_stamps.extend(encoded.timestamps[old_pos:until])
        out += run
        old_pos = until

    for index, (stamp, tid, chunk) in enumerate(entries):
        copy_old_run(bisect.bisect_right(old_keys, (stamp, tid), lo=old_pos))
        pieces.append(np.asarray(chunk, dtype=np.int32))
        out_sizes[out] = len(chunk)
        out_tids[out] = tid
        out_stamps.append(stamp)
        out += 1
    copy_old_run(n_old)

    item_ids = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int32)
    offsets = np.zeros(n_total + 1, dtype=np.int64)
    np.cumsum(out_sizes, out=offsets[1:])
    merged = EncodedDatabase(
        item_ids.astype(np.int32, copy=False),
        offsets,
        out_tids,
        tuple(out_stamps),
        catalog=encoded.catalog,
    )
    return AppendResult(
        encoded=merged, appended=len(entries), in_order=False, timestamps=new_stamps
    )
