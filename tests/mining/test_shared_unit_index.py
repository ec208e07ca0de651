"""One partition, and so one unit index, per encoding and granularity.

The time-unit partition is memoized on the
:class:`~repro.columnar.encoded.EncodedDatabase`
(:meth:`~repro.columnar.encoded.EncodedDatabase.units`), so every
context, miner and TML statement over one encoding counts against one
:class:`~repro.columnar.bitmaps.UnitIndex`, built by the first pass that
needs it.  An append yields a new encoding, which builds its own.
"""

from __future__ import annotations

import gc
import weakref
from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.columnar.bitmaps import UnitIndex
from repro.columnar.encoded import EncodedDatabase
from repro.core.transactions import TransactionDatabase
from repro.mining.context import TemporalContext
from repro.mining.engine import TemporalMiner
from repro.mining.tasks import RuleThresholds, ValidPeriodTask
from repro.temporal.granularity import Granularity
from repro.tml.executor import ExecutionEnvironment, TmlExecutor

TASK = ValidPeriodTask(Granularity.DAY, RuleThresholds(0.2, 0.5), max_rule_size=3)


@pytest.fixture
def builds(monkeypatch):
    """Every ``UnitIndex.from_csr`` call: ``True`` for a full build."""
    calls = []
    original = UnitIndex.from_csr.__func__

    def recording(cls, item_ids, offsets, bounds, n_item_rows, live=None):
        calls.append(live is None)
        return original(cls, item_ids, offsets, bounds, n_item_rows, live)

    monkeypatch.setattr(UnitIndex, "from_csr", classmethod(recording))
    return calls


def _database(seasonal_data) -> EncodedDatabase:
    # A fresh encoding per test, so no other test has filled its memo.
    database = seasonal_data.database
    return EncodedDatabase.from_baskets(
        (t.tid, t.timestamp, t.items.items) for t in database
    )


def test_miners_statements_and_contexts_share_one_index(seasonal_data, builds):
    encoded = _database(seasonal_data)
    first = TemporalMiner(encoded)
    second = TemporalMiner(encoded, incremental="on")
    first.valid_periods(TASK)
    second.valid_periods(TASK)
    environment = ExecutionEnvironment()
    environment.register("sales", encoded)
    TmlExecutor(environment).execute(
        "MINE ITEMSETS FROM sales AT GRANULARITY day WITH SUPPORT >= 0.2;"
    )
    bare = TemporalContext(encoded, Granularity.DAY)
    bare.count_items_matrix()
    assert builds == [True]
    shared = encoded.units(Granularity.DAY)
    index = shared.index()
    for context in (first.context(Granularity.DAY), second.context(Granularity.DAY), bare):
        assert context.units is shared
        assert context.units.index() is index
    # Dropping a miner's contexts keeps the index: the encoding is unchanged.
    first.invalidate()
    first.valid_periods(TASK)
    assert builds == [True]
    # Another granularity is another partition, with its own index.
    first.valid_periods(ValidPeriodTask(Granularity.WEEK, TASK.thresholds))
    assert builds == [True, True]
    assert encoded.units(Granularity.WEEK) is not shared


def test_a_selection_has_its_own_memo(seasonal_data):
    encoded = _database(seasonal_data)
    TemporalContext(encoded, Granularity.DAY).count_items_matrix()
    keep = np.arange(len(encoded)) % 2 == 0
    selected = encoded.select(keep)
    units = selected.units(Granularity.DAY)
    assert units is not encoded.units(Granularity.DAY)
    assert units.bounds[-1] == len(selected) and units._index is None


def test_a_dropped_encoding_frees_its_index_without_the_cycle_collector(seasonal_data):
    """The memo holds no reference cycle: refcounting alone frees it."""
    encoded = _database(seasonal_data)
    TemporalMiner(encoded).valid_periods(TASK)
    bitmaps = weakref.ref(encoded.units(Granularity.DAY).index()._matrix)
    gone = weakref.ref(encoded)
    gc.disable()
    try:
        del encoded
        assert gone() is None and bitmaps() is None
    finally:
        gc.enable()


def _rows(start: datetime, n: int):
    """``n`` baskets of item ids (no new labels: the catalog is shared)."""
    return [
        (start + timedelta(hours=5 * offset), [0, 1, 2 + offset % 3]) for offset in range(n)
    ]


@pytest.mark.parametrize("incremental", ["off", "on"])
def test_an_append_builds_a_new_index_with_cold_answers(seasonal_data, builds, incremental):
    database = seasonal_data.database
    source = TransactionDatabase(database, catalog=database.catalog)
    miner = TemporalMiner(source, incremental=incremental)
    miner.valid_periods(TASK)
    before = miner.database
    old_index = before.units(Granularity.DAY).index()
    assert builds == [True]

    _, last = before.time_span()
    miner.apply_append(_rows(last - timedelta(days=3), 12))
    after = miner.database
    assert after is not before and after.units(Granularity.DAY)._index is None
    report = miner.valid_periods(TASK)
    assert after.units(Granularity.DAY).index() is not old_index
    assert before.units(Granularity.DAY).index() is old_index

    cold = TransactionDatabase(source, catalog=database.catalog)
    assert len(cold) == len(database) + 12
    assert report.results == TemporalMiner(cold).valid_periods(TASK).results
