"""Property wall for the segmented per-unit kernel.

One vectorized call over a unit-aligned bitmap index
(:class:`~repro.columnar.bitmaps.UnitIndex`) replaced the per-unit
dispatch loop.  The loop survives as the reference backends' default
``count_units``, so the contract is simple: for any partition, any
same-size candidates and any mask, the bitmap backends return the matrix
the ``dict`` loop returns, cell for cell.  The generators aim at where a
word-packed layout can go wrong: units of exactly 63/64/65/128/129
transactions, runs of empty units (leading, interior, trailing), a
boundary array that starts mid-store (the shard-worker call), item ids
outside the indexed universe, and masks that keep nothing.
"""

import random
import tracemalloc
from datetime import datetime, timedelta
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import bitmaps
from repro.columnar import encoded as encoded_module
from repro.columnar.backends import get_backend
from repro.columnar.bitmaps import UnitIndex, popcount_rows, popcount_sum, popcount_words
from repro.columnar.encoded import EncodedDatabase, EncodedUnits
from repro.columnar.perunit import count_candidates_per_unit, count_items_per_unit
from repro.core.items import Itemset
from repro.core.transactions import TransactionDatabase
from repro.incremental import IncrementalContext, append_encoded
from repro.mining.context import TemporalContext
from repro.temporal.granularity import Granularity, unit_index

N_ITEMS = 10
BITMAP_BACKENDS = ("vertical", "packed")
UNIT_SIZES = [0, 0, 1, 2, 7, 63, 64, 65, 128, 129]
_START = datetime(2026, 1, 1)


def _encoded(n: int, rng: random.Random) -> EncodedDatabase:
    return EncodedDatabase.from_baskets(
        (tid, _START + timedelta(minutes=tid), rng.sample(range(N_ITEMS), rng.randint(1, 5)))
        for tid in range(n)
    )


@st.composite
def partitions(draw):
    """An encoded store cut by a boundary array drawn unit size by unit size.

    ``lead``/``tail`` transactions lie outside the boundary array, so the
    partition may start (and stop) mid-store like a shard's slice.
    """
    sizes = draw(st.lists(st.sampled_from(UNIT_SIZES), min_size=1, max_size=7))
    lead = draw(st.integers(min_value=0, max_value=3))
    tail = draw(st.integers(min_value=0, max_value=3))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    bounds = lead + np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    return EncodedUnits(_encoded(lead + sum(sizes) + tail, rng), bounds)


@st.composite
def candidate_lists(draw):
    """Same-size candidates; two ids lie beyond any indexed universe."""
    k = draw(st.sampled_from([2, 3, 4]))
    pool = list(combinations(range(N_ITEMS + 2), k))
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10, unique=True))
    return [Itemset(items) for items in chosen]


def _mask(shape, density: float, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).random(shape) < density


@given(
    partitions(),
    candidate_lists(),
    st.sampled_from([None, 0.0, 0.4, 1.0]),
    st.sampled_from([None, 0.0, 0.5, 1.0]),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=120, deadline=None)
def test_segmented_equals_dict_loop_cell_for_cell(
    units, candidates, unit_density, candidate_density, seed
):
    n_units = len(units)
    unit_mask = None if unit_density is None else _mask(n_units, unit_density, seed)
    candidate_masks = (
        None
        if candidate_density is None
        else _mask((len(candidates), n_units), candidate_density, seed + 1)
    )
    # The reference: one dict pass per unit, masks applied by hand.
    expected = get_backend("dict").count_units(candidates, units)
    if unit_mask is not None:
        expected[:, ~unit_mask] = 0
    if candidate_masks is not None:
        expected[~candidate_masks] = 0
    # First with no index built yet (a mask then indexes its live units
    # from the CSR columns), then with the full index in place (a mask
    # then selects word columns of it).
    for name in BITMAP_BACKENDS + BITMAP_BACKENDS:
        counted = count_candidates_per_unit(
            units,
            candidates,
            get_backend(name),
            unit_mask=unit_mask,
            candidate_masks=candidate_masks,
        )
        assert counted.dtype == np.int64 and counted.shape == expected.shape
        assert np.array_equal(counted, expected), f"backend {name!r} disagrees"
        if name == BITMAP_BACKENDS[-1]:
            units.index()


@given(partitions(), st.sampled_from([None, 0.0, 0.5]), st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_item_counts_equal_per_unit_bincounts(units, density, seed):
    unit_mask = None if density is None else _mask(len(units), density, seed)
    encoded = units.encoded
    expected = np.zeros((encoded.n_items, len(units)), dtype=np.int64)
    for unit in range(len(units)):
        if unit_mask is None or unit_mask[unit]:
            for basket in units.segment(unit).baskets():
                expected[list(basket), unit] += 1
    assert np.array_equal(count_items_per_unit(units, unit_mask=unit_mask), expected)


@given(partitions(), candidate_lists(), st.data())
@settings(max_examples=40, deadline=None)
def test_a_bounds_slice_counts_its_own_columns(units, candidates, data):
    """What a shard worker is handed: a slice of the boundary array."""
    lo = data.draw(st.integers(min_value=0, max_value=len(units) - 1))
    hi = data.draw(st.integers(min_value=lo + 1, max_value=len(units)))
    backend = get_backend("packed")
    whole = count_candidates_per_unit(units, candidates, backend)
    shard = EncodedUnits(units.encoded, units.bounds[lo : hi + 1])
    assert np.array_equal(
        count_candidates_per_unit(shard, candidates, backend), whole[:, lo:hi]
    )


@st.composite
def dated_databases(draw):
    """Transactions scattered over years on both sides of the epoch."""
    n = draw(st.integers(min_value=1, max_value=40))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    origin = draw(st.sampled_from([datetime(1969, 11, 20), datetime(2025, 12, 28)]))
    span_hours = draw(st.sampled_from([30, 24 * 40, 24 * 800]))
    database = TransactionDatabase()
    for _ in range(n):
        stamp = origin + timedelta(
            hours=rng.randrange(span_hours), microseconds=rng.randrange(1_000_000)
        )
        database.add(stamp, rng.sample(range(N_ITEMS), rng.randint(1, 5)))
    return database


@given(dated_databases(), candidate_lists(), st.sampled_from(list(Granularity)))
@settings(max_examples=60, deadline=None)
def test_every_granularity_partitions_and_counts_alike(database, candidates, granularity):
    context = TemporalContext(database, granularity)
    stamps = context.encoded.timestamps
    # The vectorized unit boundaries are the scalar unit_index, floor and all.
    assert context.encoded.unit_offsets(granularity).tolist() == [
        unit_index(stamp, granularity) for stamp in stamps
    ]
    assert context.first_unit == unit_index(stamps[0], granularity)
    assert context.last_unit == unit_index(stamps[-1], granularity)
    reference = context.count_candidates_per_unit(candidates, counting="dict")
    for name in BITMAP_BACKENDS:
        counted = context.count_candidates_per_unit(candidates, counting=name)
        for candidate in candidates:
            assert np.array_equal(counted[candidate], reference[candidate])


def test_single_unit_store_and_all_false_mask():
    units = EncodedUnits(_encoded(70, random.Random(3)), np.array([0, 70], dtype=np.int64))
    candidates = [Itemset(pair) for pair in combinations(range(4), 2)]
    expected = get_backend("dict").count_units(candidates, units)
    backend = get_backend("packed")
    assert np.array_equal(count_candidates_per_unit(units, candidates, backend), expected)
    nothing = count_candidates_per_unit(
        units, candidates, backend, unit_mask=np.array([False])
    )
    assert not nothing.any() and nothing.shape == expected.shape


def test_a_masked_pass_reuses_the_cached_index(monkeypatch):
    """Once the full index exists, a mask selects its word columns."""
    rng = random.Random(3)
    sizes = [65, 0, 3, 128, 64, 0, 1]
    bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    units = EncodedUnits(_encoded(sum(sizes), rng), bounds)
    full = units.index()
    live = np.array([True, True, False, True, False, False, True])
    selected = units.index(live)
    assert selected.columns.tolist() == [0, 3, 6]
    assert selected.word_starts.tolist() == [0, 2, 4] and selected.n_words == 5
    assert selected.n_transactions == 65 + 128 + 1
    assert units.index() is full  # the selection is not retained
    # A mask that only drops empty units changes nothing.
    assert units.index(np.array(sizes) > 0) is full

    def rebuilt(*args, **kwargs):
        raise AssertionError("a cached index is never rebuilt")

    monkeypatch.setattr(UnitIndex, "from_csr", rebuilt)
    pairs = [Itemset(pair) for pair in combinations(range(N_ITEMS), 2)]
    counted = count_candidates_per_unit(units, pairs, get_backend("packed"), unit_mask=live)
    expected = get_backend("dict").count_units(pairs, units)
    expected[:, ~live] = 0
    assert np.array_equal(counted, expected)


def test_candidates_of_differing_sizes_are_refused():
    units = EncodedUnits(_encoded(8, random.Random(1)), np.array([0, 8], dtype=np.int64))
    with pytest.raises(ValueError):
        count_candidates_per_unit(
            units, [Itemset((0, 1)), Itemset((0, 1, 2))], get_backend("packed")
        )


def test_numpy1_popcount_fallback_covers_the_segmented_reduce(monkeypatch):
    """The py3.9 / numpy < 2 leg has no ``np.bitwise_count``."""
    rng = random.Random(11)
    sizes = [63, 0, 64, 65, 0, 0, 128, 129, 1]
    units = EncodedUnits(
        _encoded(sum(sizes), rng), np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    )
    candidates = [Itemset(triple) for triple in combinations(range(6), 3)]
    with_intrinsic = count_candidates_per_unit(units, candidates, get_backend("packed"))
    words = np.array([[0, 1, 3], [(1 << 64) - 1, 1 << 63, 7]], dtype=np.uint64)
    monkeypatch.setattr(bitmaps, "_HAS_BITWISE_COUNT", False)
    assert popcount_sum(words) == 3 + 64 + 1 + 3
    assert popcount_rows(words).tolist() == [3, 68]
    assert popcount_words(words).tolist() == [[0, 1, 2], [64, 1, 3]]
    assert popcount_words(words).dtype == np.uint8
    fallback = count_candidates_per_unit(units, candidates, get_backend("packed"))
    assert np.array_equal(fallback, with_intrinsic)
    assert np.array_equal(fallback, get_backend("dict").count_units(candidates, units))


def test_one_pass_allocates_index_plus_output_plus_a_block():
    """The working set is bounded by bytes, not by the candidate count."""
    rng = random.Random(5)
    n_units, per_unit = 200, 20
    units = EncodedUnits(
        _encoded(n_units * per_unit, rng),
        np.arange(0, (n_units + 1) * per_unit, per_unit, dtype=np.int64),
    )
    candidates = [Itemset(triple) for triple in combinations(range(N_ITEMS), 3)] * 25
    backend = get_backend("packed")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        matrix = count_candidates_per_unit(units, candidates, backend)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert matrix.shape == (len(candidates), n_units)
    # Unblocked, the intersection alone would hold candidates x words x 8
    # bytes (~4.6 MiB here) on top of the output.
    assert peak <= units.index().nbytes + matrix.nbytes + (1 << 20)


def test_recount_after_append_indexes_only_the_dirty_unit(monkeypatch):
    """A masked pass is O(live units): the dirty recount reads one unit."""
    database = TransactionDatabase()
    rng = random.Random(9)
    for day in range(12):
        for slot in range(30):
            database.add(
                _START + timedelta(days=day, minutes=slot),
                rng.sample(range(N_ITEMS), rng.randint(2, 5)),
            )
    pairs = [Itemset(pair) for pair in combinations(range(N_ITEMS), 2)]
    warm = IncrementalContext(database, Granularity.DAY)
    warm.count_items_per_unit()
    warm.count_candidates_per_unit(pairs)

    batch = [
        (10_000 + offset, _START + timedelta(days=4, hours=3, minutes=offset), (0, 1, 2))
        for offset in range(5)
    ]
    result = append_encoded(warm.encoded, batch)
    rebased = warm.rebased(result.encoded, result.touched_units(Granularity.DAY))
    assert rebased.dirty_unit_count() == 1

    indexed = []

    class RecordingIndex(UnitIndex):
        @classmethod
        def from_csr(cls, *args, **kwargs):
            index = super().from_csr(*args, **kwargs)
            indexed.append((index.columns.tolist(), index.n_transactions))
            return index

    monkeypatch.setattr(encoded_module, "UnitIndex", RecordingIndex)
    recounted = rebased.count_candidates_per_unit(pairs)
    assert indexed == [([4], 35)]  # day 4 alone, its 30 old + 5 new transactions
    scratch = TemporalContext(result.encoded, Granularity.DAY).count_candidates_per_unit(
        pairs, counting="dict"
    )
    for pair in pairs:
        assert np.array_equal(recounted[pair], scratch[pair])
