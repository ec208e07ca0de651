"""One in-memory form on the serving path.

Store-backed environments hold the columnar
:class:`~repro.columnar.encoded.EncodedDatabase` only: the store loads
straight into it, every append folds into it, and no
:class:`~repro.core.transactions.Transaction` object is ever built.
These tests pin that:

* an environment folded through N random appends equals a cold
  ``load_encoded`` of the same store, column for column, and mines the
  same payloads;
* a whole serving session (boot, every MINE kind, append, mutating SQL)
  constructs no ``Transaction``;
* ``restrict_database`` over the encoding equals a naive filter;
* EXPLAIN shows the plan the run uses — before and after a MINE alike;
* the TML text of a MINE is rendered only when read.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.encoded import EncodedDatabase
from repro.core.items import ItemCatalog
from repro.core.transactions import Transaction, TransactionDatabase
from repro.db.sqlite_store import SqliteStore
from repro.mining.constrained import restrict_database
from repro.mining.results import MiningReport
from repro.obs.metrics import MetricsRegistry
from repro.service.core import MiningService, ServiceConfig
from repro.service.serialize import payload_to_dict
from repro.system.session import IqmsSession
from repro.temporal.calendar_algebra import CalendarExpression, CalendarPattern
from repro.temporal.granularity import Granularity, stamp_column, unit_index
from repro.temporal.interval import TimeInterval
from repro.temporal.periodicity import CalendricPeriodicity, CyclicPeriodicity
from repro.tml.executor import ExecutionEnvironment, TmlExecutor

START = datetime(2026, 3, 2)
SPAN_HOURS = 24 * 21
#: Batches draw from the wider pool, so some of them add new labels.
BASE_LABELS = ("a", "b", "c", "d", "e")
ALL_LABELS = BASE_LABELS + ("f", "g", "h")

PERIODS = (
    "MINE PERIODS FROM transactions AT GRANULARITY day "
    "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.5 HAVING COVERAGE >= 2, SIZE <= 3;"
)
RULES_DURING = (
    "MINE RULES FROM transactions DURING PERIOD '2026-03-05' TO '2026-03-16' "
    "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.5;"
)


def rows_strategy(labels, min_size=1, max_size=12):
    row = st.tuples(
        st.integers(0, SPAN_HOURS),
        st.lists(st.sampled_from(labels), min_size=1, max_size=4),
    )
    return st.lists(row, min_size=min_size, max_size=max_size)


def _at(hours: int) -> datetime:
    return START + timedelta(hours=hours)


def _label_sets(encoded: EncodedDatabase):
    label = encoded.catalog.label
    return [{label(item) for item in basket} for basket in encoded.iter_baskets()]


def _payload(environment: ExecutionEnvironment, text: str) -> dict:
    result = TmlExecutor(environment).execute(text)
    return payload_to_dict(result.payload, environment.resolve("transactions").catalog)


@pytest.mark.parametrize("mode", ["off", "on"])
@settings(max_examples=25, deadline=None)
@given(
    base=rows_strategy(BASE_LABELS),
    batches=st.lists(
        st.tuples(
            st.booleans(),  # in order (after the tail) or anywhere
            st.booleans(),  # may add labels, or repeats known ones only
            rows_strategy(ALL_LABELS, max_size=6),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_folded_environment_equals_cold_load(mode, base, batches):
    store = SqliteStore(":memory:")
    store.append_batch([(_at(hours), items) for hours, items in base])
    environment = ExecutionEnvironment(store=store, metrics=MetricsRegistry())
    environment.set_incremental(mode)
    try:
        _payload(environment, PERIODS)  # cached contexts for the fold to keep
        last = max(hours for hours, _ in base)
        seen = {label for _, items in base for label in items}
        first_seen_order_kept = True  # no backfill, no new label
        for in_order, new_labels, rows in batches:
            batch = []
            for hours, items in rows:
                if in_order:
                    hours = last + 1 + hours % 48
                last = max(last, hours)
                if not new_labels:
                    items = [BASE_LABELS[ALL_LABELS.index(i) % 5] for i in items]
                first_seen_order_kept &= in_order and seen.issuperset(items)
                seen.update(items)
                batch.append((_at(hours), items))
            outcome = store.append_batch(batch)
            environment.apply_store_append(
                [(ts, items, tid) for (ts, items), tid in zip(batch, outcome.tids)]
            )

        folded = environment.resolve("transactions")
        cold = store.load_encoded()
        assert np.array_equal(folded.offsets, cold.offsets)
        assert np.array_equal(folded.tids, cold.tids)
        assert np.array_equal(folded.stamps, cold.stamps)
        assert folded.timestamps == cold.timestamps
        assert _label_sets(folded) == _label_sets(cold)
        # Ids follow the order labels were first seen, which a backfill or
        # a new label can make a cold load see differently.  Seeded with
        # the environment's catalog (the reload a mutation does), a cold
        # load matches array for array and mines identical payloads.
        seeded = store.load_encoded(catalog=ItemCatalog(folded.catalog.labels()))
        assert np.array_equal(folded.item_ids, seeded.item_ids)
        assert np.array_equal(folded.offsets, seeded.offsets)
        assert seeded.catalog.labels() == folded.catalog.labels()
        assert folded.n_items == seeded.n_items
        controls = [ExecutionEnvironment(store=store, metrics=MetricsRegistry())]
        controls[0].register("transactions", seeded)
        if first_seen_order_kept:
            assert np.array_equal(folded.item_ids, cold.item_ids)
            controls.append(ExecutionEnvironment(store=store, metrics=MetricsRegistry()))
        for control in controls:
            for statement in (PERIODS, RULES_DURING):
                assert _payload(environment, statement) == _payload(control, statement)
    finally:
        store.close()


def test_serving_path_builds_no_transaction_objects(tmp_path, monkeypatch):
    path = str(tmp_path / "store.db")
    seed = SqliteStore(path)
    seed.append_batch(
        [
            (START + timedelta(hours=7 * n), [f"item{n % 5}", f"item{(n + 1) % 5}"])
            for n in range(240)
        ]
    )
    seed.close()

    built = []
    original = Transaction.__post_init__

    def counting(self):
        built.append(self.tid)
        original(self)

    monkeypatch.setattr(Transaction, "__post_init__", counting)
    service = MiningService(
        store=SqliteStore(path), config=ServiceConfig(workers=1, metrics=MetricsRegistry())
    )
    statements = (
        PERIODS,
        "MINE PERIODICITIES FROM transactions AT GRANULARITY day "
        "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.5 HAVING PERIOD <= 7, REPETITIONS >= 2;",
        RULES_DURING,
        "MINE RULES FROM transactions DURING CALENDAR 'weekday=5|6' "
        "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.5;",
        "MINE ITEMSETS FROM transactions AT GRANULARITY week "
        "WITH SUPPORT >= 0.3 HAVING COVERAGE >= 2, SIZE <= 2;",
        "MINE TRENDS FROM transactions AT GRANULARITY week WITH SUPPORT >= 0.1;",
        "EXPLAIN " + RULES_DURING,
        "PROFILE 'item0', 'item1' FROM transactions BY week;",
    )
    try:
        for statement in statements:
            assert service.run_sync(statement, timeout=60).state == "done", statement
        service.append_transactions([(START + timedelta(days=30), ["item0", "new"])])
        assert service.run_sync(PERIODS, timeout=60).result["n_transactions"] == 241
        mutation = service.run_sync(
            "DELETE FROM transactions WHERE tid = (SELECT MIN(tid) FROM transactions);",
            timeout=60,
        )
        assert mutation.state == "done", mutation.error
        assert mutation.result["rows"] == [[2]]  # the first basket's two rows
        assert service.run_sync(PERIODS, timeout=60).result["n_transactions"] == 240
    finally:
        service.close()
        service.store.close()
    assert built == []


def _member_naive(feature, stamp: datetime) -> bool:
    if isinstance(feature, TimeInterval):
        return feature.start <= stamp < feature.end
    if isinstance(feature, (CyclicPeriodicity, CalendricPeriodicity)):
        return feature.matches_unit(unit_index(stamp, feature.granularity))
    return feature.matches_instant(stamp)


WEEKEND = CalendarPattern.parse("weekday=5|6")
FEATURES = (
    TimeInterval(datetime(2026, 3, 5), datetime(2026, 3, 9, 6)),
    TimeInterval(datetime(2030, 1, 1), datetime(2030, 2, 1)),  # matches nothing
    CyclicPeriodicity(3, 1, Granularity.DAY),
    CalendricPeriodicity(CalendarPattern.parse("weekday=0|2"), Granularity.DAY),
    WEEKEND,
    CalendarExpression.of(WEEKEND).union(
        CalendarExpression.of(CalendarPattern.parse("hour=9|10"))
    ),
)


@pytest.mark.parametrize("feature", FEATURES, ids=lambda feature: type(feature).__name__)
@settings(max_examples=30, deadline=None)
@given(rows=rows_strategy(ALL_LABELS, min_size=0, max_size=30))
def test_restrict_database_equals_naive_filter(feature, rows):
    database = TransactionDatabase()
    for hours, items in rows:
        database.add(_at(hours), items)
    encoded = database.encoded()
    pairs = list(zip(encoded.timestamps, encoded.iter_baskets()))
    expected = [
        (stamp, basket) for stamp, basket in pairs if _member_naive(feature, stamp)
    ]
    restricted = restrict_database(encoded, feature, Granularity.DAY)
    assert list(zip(restricted.timestamps, restricted.iter_baskets())) == expected
    assert np.array_equal(restricted.stamps, stamp_column(restricted.timestamps))
    assert restricted.catalog is encoded.catalog


def test_restrict_database_interval_end_is_half_open():
    database = TransactionDatabase()
    for day in range(4):
        database.add(datetime(2026, 3, 2 + day), [1, 2])
    window = TimeInterval(datetime(2026, 3, 3), datetime(2026, 3, 5))
    restricted = restrict_database(database, window, Granularity.DAY)
    assert restricted.timestamps == (datetime(2026, 3, 3), datetime(2026, 3, 4))
    assert restricted.offsets.tolist() == [0, 2, 4]
    empty = restrict_database(EncodedDatabase.from_baskets([]), window, Granularity.DAY)
    assert len(empty) == 0 and empty.offsets.tolist() == [0]


def test_explain_is_the_same_before_and_after_a_mine(monkeypatch):
    """A plan depends on the store alone, not on what the process mined.

    One miner is asked for its plan fresh, another after it mined the
    statement and kept the run's metrics.  Planner statistics come from
    the encoding, id-only items included, and observed run times never
    feed back into a plan — so the two EXPLAINs must be equal.
    """
    monkeypatch.delenv("REPRO_INCREMENTAL", raising=False)
    database = TransactionDatabase()  # id-only: the catalog stays empty
    for n in range(200):
        database.add(START + timedelta(hours=3 * n), [n % 8, (n + 3) % 8])
    statement = (
        "MINE PERIODS FROM ids AT GRANULARITY day "
        "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.5;"
    )
    rows = {}
    for mined_first in (False, True):
        environment = ExecutionEnvironment(metrics=MetricsRegistry())
        environment.register("ids", database)
        executor = TmlExecutor(environment)
        if mined_first:
            executor.execute(statement)
        rows[mined_first] = executor.execute("EXPLAIN " + statement).payload.rows
        assert environment.miner("ids").stats().n_items == 8
    assert rows[False] == rows[True]


def test_service_mine_never_renders_text(seasonal_data, monkeypatch):
    rendered = []
    original = MiningReport.format

    def counting(self, *args, **kwargs):
        rendered.append(self.task_name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MiningReport, "format", counting)
    service = MiningService(config=ServiceConfig(workers=1, metrics=MetricsRegistry()))
    try:
        service.load_database(seasonal_data.database)
        job = service.run_sync(
            "MINE PERIODS FROM transactions AT GRANULARITY month "
            "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6 HAVING COVERAGE >= 2;",
            timeout=60,
        )
        assert job.state == "done" and job.result["n_results"] > 0
    finally:
        service.close()
    assert rendered == []


def test_repl_prints_the_eager_rendering(seasonal_data):
    import io

    from repro.system.repl import repl

    session = IqmsSession()
    session.load_database("sales", seasonal_data.database)
    statement = (
        "MINE PERIODS FROM sales AT GRANULARITY month "
        "WITH SUPPORT >= 0.05, CONFIDENCE >= 0.3 HAVING COVERAGE >= 2;"
    )
    stdout = io.StringIO()
    repl(session=session, stdin=io.StringIO(statement + "\n.quit\n"), stdout=stdout)
    report = session.last_report
    assert len(report) > 50  # the text is cut at 50 findings
    catalog = session.environment.resolve("sales").catalog
    assert f"iqms> {report.format(catalog, limit=50)}\n" in stdout.getvalue()
