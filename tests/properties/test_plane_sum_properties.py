"""Property wall for the two per-unit reductions of :class:`UnitIndex`.

An index decides once, when built, how :meth:`UnitIndex.count_into`
sums a block's per-word popcounts to units: word plane by word plane
when no unit owns more than ``_PLANE_WORDS`` words, else
:func:`numpy.add.reduceat`.  Both must give the naive per-unit count,
for every unit shape (empty, one word, two or three words, wider than
the plane limit), every candidate size, every masked selection and
both popcounts (``np.bitwise_count`` and numpy < 2's 16-bit table).
"""

import random
from contextlib import contextmanager
from datetime import datetime, timedelta

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import bitmaps
from repro.columnar.bitmaps import UnitIndex
from repro.columnar.encoded import EncodedDatabase

N_ITEMS = 8
_START = datetime(2026, 1, 1)
#: Units of 0, 1, 2, 3 and 5+ words (the default plane limit is 4).
UNIT_SIZES = [0, 0, 1, 40, 64, 65, 128, 150, 192, 257, 330]


@contextmanager
def patched(name: str, value):
    """``bitmaps.<name>`` set to ``value`` inside the block."""
    saved = getattr(bitmaps, name)
    setattr(bitmaps, name, value)
    try:
        yield
    finally:
        setattr(bitmaps, name, saved)


@st.composite
def stores(draw):
    """A CSR store and a boundary array cutting it into units."""
    sizes = draw(st.lists(st.sampled_from(UNIT_SIZES), min_size=1, max_size=6))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    n = sum(sizes)
    encoded = EncodedDatabase.from_baskets(
        (tid, _START + timedelta(minutes=tid), rng.sample(range(N_ITEMS), rng.randint(1, 5)))
        for tid in range(n)
    )
    bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    return encoded, bounds


def _naive(encoded: EncodedDatabase, bounds: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Per-unit supports by scanning every basket of every unit."""
    counts = np.zeros((len(ids), len(bounds) - 1), dtype=np.int64)
    for unit in range(len(bounds) - 1):
        for position in range(int(bounds[unit]), int(bounds[unit + 1])):
            basket = set(encoded.basket(position))
            for row, candidate in enumerate(ids):
                counts[row, unit] += basket.issuperset(candidate.tolist())
    return counts


@given(
    stores(),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([None, 0.0, 0.5, 1.0]),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_both_reductions_equal_a_naive_per_unit_count(store, k, seed, density, intrinsic):
    """``intrinsic=False`` is numpy < 2: the 16-bit table popcount."""
    encoded, bounds = store
    n_units = len(bounds) - 1
    rng = np.random.default_rng(seed)
    # Ids up to N_ITEMS + 1 include one outside the indexed universe.
    ids = rng.integers(0, N_ITEMS + 2, size=(12, k)).astype(np.int64)
    live = None if density is None else rng.random(n_units) < density
    expected = _naive(encoded, bounds, ids)
    if live is not None:
        expected[:, ~live] = 0
    columns = (encoded.item_ids, encoded.offsets, bounds, encoded.n_items)
    widest = int(((np.diff(bounds) + 63) >> 6).max())
    for limit in (0, widest, bitmaps._PLANE_WORDS):
        with patched("_PLANE_WORDS", limit):
            full = UnitIndex.from_csr(*columns)
            # A masked index two ways: read from the CSR columns, or
            # selected out of the full one (``select`` decides anew).
            indexes = [full]
            if live is not None:
                indexes = [UnitIndex.from_csr(*columns, live), full.select(live)]
        for index in indexes:
            index_widest = int(((index.sizes + 63) >> 6).max(initial=0))
            assert (index._planes is None) == (index_widest > limit)
            out = np.zeros((len(ids), n_units), dtype=np.int64)
            rows = bitmaps.candidate_ids(ids, index.n_item_rows)
            with patched("_HAS_BITWISE_COUNT", intrinsic and bitmaps._HAS_BITWISE_COUNT):
                index.count_into(rows, out)
            assert np.array_equal(out, expected), f"limit={limit}"
