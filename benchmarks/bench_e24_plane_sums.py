"""E24 — per-unit sums by word plane vs ``np.add.reduceat``.

:meth:`UnitIndex.count_into` reduces a block's per-word popcounts to
per-unit supports in one of two ways, chosen when the index is built:
word plane by word plane while no unit owns more than ``_PLANE_WORDS``
words, else ``np.add.reduceat``.  This bench times one k=2 pass through
each reduction, forced, on units of a uniform width (1..9 words, at 60
and 360 units) and on a 20k-transaction seasonal store at day, week,
month and year, and asserts the two give the same counts.  The rows are
what ``_PLANE_WORDS`` was picked from.
"""

import random
import time
from datetime import datetime, timedelta

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.columnar import bitmaps
from repro.columnar.bitmaps import UnitIndex
from repro.columnar.encoded import EncodedDatabase
from repro.core.levels import next_level
from repro.datagen import seasonal_dataset
from repro.mining.context import TemporalContext
from repro.temporal import Granularity

REPEATS = 21


def _median_ms(call) -> float:
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return sorted(samples)[REPEATS // 2] * 1e3


def _both(encoded: EncodedDatabase, bounds: np.ndarray, ids: np.ndarray):
    """(reduceat ms, planes ms) of one pass; the counts must agree."""
    columns = (encoded.item_ids, encoded.offsets, bounds, encoded.n_items)
    saved = bitmaps._PLANE_WORDS
    try:
        bitmaps._PLANE_WORDS = 0
        reduce_index = UnitIndex.from_csr(*columns)
        bitmaps._PLANE_WORDS = 1000
        plane_index = UnitIndex.from_csr(*columns)
    finally:
        bitmaps._PLANE_WORDS = saved
    ids = bitmaps.candidate_ids(ids, reduce_index.n_item_rows)
    by_reduce = np.zeros((len(ids), len(bounds) - 1), dtype=np.int64)
    by_plane = by_reduce.copy()
    reduce_index.count_into(ids, by_reduce)
    plane_index.count_into(ids, by_plane)
    assert np.array_equal(by_reduce, by_plane)
    return (
        _median_ms(lambda: reduce_index.count_into(ids, by_reduce)),
        _median_ms(lambda: plane_index.count_into(ids, by_plane)),
    )


@pytest.mark.parametrize("n_units", (60, 360))
def test_e24_uniform_unit_widths(n_units):
    rng = random.Random(1)
    pairs = np.array([(a, b) for a in range(70) for b in range(a + 1, 70)])[:2000]
    seconds = {}
    for width in range(1, 10):
        per_unit = 64 * width - 10
        n = per_unit * n_units
        encoded = EncodedDatabase.from_baskets(
            (tid, datetime(2026, 1, 1) + timedelta(seconds=tid), rng.sample(range(200), 6))
            for tid in range(n)
        )
        bounds = np.arange(0, n + 1, per_unit, dtype=np.int64)
        seconds[width] = _both(encoded, bounds, pairs)
        emit(
            "E24",
            f"units={n_units}",
            f"width={width}",
            f"reduceat_ms={seconds[width][0]:.2f}",
            f"planes_ms={seconds[width][1]:.2f}",
        )
    # One-word units are where reduceat's per-cell cost dominates.
    assert seconds[1][1] < seconds[1][0]


def test_e24_seasonal_granularities():
    encoded = seasonal_dataset(n_transactions=20000).database.encoded()
    for granularity in (Granularity.DAY, Granularity.WEEK, Granularity.MONTH, Granularity.YEAR):
        context = TemporalContext(encoded, granularity)
        items = context.count_items_matrix()
        frequent = (items >= context.local_min_counts(0.05)).any(axis=1)
        pairs = next_level(np.flatnonzero(frequent).reshape(-1, 1))[:5000]
        sizes = context.unit_sizes[context.unit_sizes > 0]
        reduce_ms, plane_ms = _both(encoded, context.units.bounds, pairs)
        emit(
            "E24",
            f"seasonal20k/{granularity.value}",
            f"units={context.n_units}",
            f"widest_words={int((sizes.max() + 63) >> 6)}",
            f"candidates={len(pairs)}",
            f"reduceat_ms={reduce_ms:.2f}",
            f"planes_ms={plane_ms:.2f}",
        )
