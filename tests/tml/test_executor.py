"""Unit tests for TML execution against a live environment."""

from datetime import datetime

import pytest

from repro.core.items import Itemset
from repro.core.rulegen import RuleKey
from repro.db.query import QueryResult
from repro.db.sqlite_store import SqliteStore
from repro.errors import TmlExecutionError, TmlParseError
from repro.mining.results import MiningReport
from repro.temporal import CyclicPeriodicity, Granularity, TimeInterval
from repro.tml.ast import CalendarFeature, CyclicFeature, PeriodFeature
from repro.tml.executor import (
    ExecutionEnvironment,
    TmlExecutor,
    resolve_feature,
)


@pytest.fixture
def executor(seasonal_data):
    store = SqliteStore(":memory:")
    store.save_database(seasonal_data.database)
    environment = ExecutionEnvironment(store=store)
    environment.register("sales", seasonal_data.database)
    yield TmlExecutor(environment)
    store.close()


class TestResolveFeature:
    def test_period(self):
        feature = resolve_feature(PeriodFeature("2025-06-01", "2025-09-01"))
        assert feature == TimeInterval(datetime(2025, 6, 1), datetime(2025, 9, 1))

    def test_calendar(self):
        feature = resolve_feature(CalendarFeature("month=12"))
        assert feature.months == frozenset({12})

    def test_cyclic(self):
        feature = resolve_feature(CyclicFeature(7, Granularity.DAY, 2))
        assert feature == CyclicPeriodicity(7, 2, Granularity.DAY)

    def test_bad_timestamp(self):
        with pytest.raises(TmlExecutionError):
            resolve_feature(PeriodFeature("junk", "2025-09-01"))


class TestEnvironment:
    def test_unknown_source(self, executor):
        with pytest.raises(TmlExecutionError):
            executor.environment.resolve("ghosts")

    def test_transactions_loads_from_store(self, executor, seasonal_data):
        database = executor.environment.resolve("transactions")
        assert len(database) == len(seasonal_data.database)

    def test_miner_cached(self, executor):
        assert executor.environment.miner("sales") is executor.environment.miner(
            "sales"
        )

    def test_register_invalidates_miner(self, executor, tiny_db):
        old = executor.environment.miner("sales")
        executor.environment.register("sales", tiny_db)
        assert executor.environment.miner("sales") is not old


class TestSetEngine:
    def test_set_engine_updates_environment(self, executor):
        result = executor.execute("SET ENGINE vertical;")
        assert executor.environment.engine == "vertical"
        assert ("engine", "vertical") in result.payload.rows

    def test_set_engine_off_restores_auto(self, executor):
        executor.execute("SET ENGINE hashtree;")
        executor.execute("SET ENGINE OFF;")
        assert executor.environment.engine == "auto"

    def test_unknown_engine_rejected_at_parse_time(self, executor):
        with pytest.raises(TmlParseError, match="unknown counting backend"):
            executor.execute("SET ENGINE btree;")
        assert executor.environment.engine == "auto"

    def test_unknown_engine_error_names_valid_choices(self, executor):
        with pytest.raises(TmlParseError, match="btree.*auto.*packed"):
            executor.execute("SET ENGINE btree;")

    def test_set_engine_auto_round_trips(self, executor):
        result = executor.execute("SET ENGINE AUTO;")
        assert executor.environment.engine == "auto"
        assert ("engine", "auto") in result.payload.rows

    def test_engine_applies_to_cached_miners(self, executor):
        miner = executor.environment.miner("sales")
        executor.execute("SET ENGINE vertical;")
        assert miner.counting == "vertical"
        assert executor.environment.miner("sales").counting == "vertical"

    def test_new_miners_inherit_engine(self, executor, tiny_db):
        executor.execute("SET ENGINE dict;")
        executor.environment.register("extra", tiny_db)
        assert executor.environment.miner("extra").counting == "dict"

    def test_mining_respects_engine(self, executor, seasonal_data):
        executor.execute("SET ENGINE vertical;")
        result = executor.execute(
            "MINE PERIODS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6 "
            "HAVING COVERAGE >= 2, SIZE <= 2;"
        )
        assert isinstance(result.payload, MiningReport)
        assert "season0_a" in result.text


class TestExecution:
    def test_sql(self, executor, seasonal_data):
        result = executor.execute("SELECT COUNT(DISTINCT tid) FROM transactions;")
        assert isinstance(result.payload, QueryResult)
        assert result.payload.rows[0][0] == len(seasonal_data.database)

    def test_show_summary(self, executor):
        result = executor.execute("SHOW SUMMARY;")
        assert "transactions" in result.text

    def test_show_items(self, executor):
        result = executor.execute("SHOW ITEMS LIMIT 3;")
        assert len(result.payload.rows) == 3

    def test_show_volume(self, executor):
        result = executor.execute("SHOW VOLUME BY month;")
        assert len(result.payload.rows) == 12

    def test_mine_periods_finds_embedded(self, executor, seasonal_data):
        result = executor.execute(
            "MINE PERIODS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6 "
            "HAVING COVERAGE >= 2, SIZE <= 2;"
        )
        assert isinstance(result.payload, MiningReport)
        assert "season0_a" in result.text

    def test_mine_rules_during_period(self, executor, seasonal_data):
        result = executor.execute(
            "MINE RULES FROM sales DURING PERIOD '2025-06-01' TO '2025-09-01' "
            "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6 HAVING SIZE <= 2;"
        )
        catalog = seasonal_data.database.catalog
        season0 = RuleKey(
            Itemset([catalog.id("season0_a")]), Itemset([catalog.id("season0_b")])
        )
        assert season0 in {r.key for r in result.payload}

    def test_mine_rules_during_calendar(self, executor):
        result = executor.execute(
            "MINE RULES FROM sales DURING CALENDAR 'month=12' "
            "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6 HAVING SIZE <= 2;"
        )
        assert "season1" in result.text  # december rule surfaces

    def test_mine_periodicities_runs(self, executor):
        result = executor.execute(
            "MINE PERIODICITIES FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.25, CONFIDENCE >= 0.6 "
            "HAVING PERIOD <= 6, REPETITIONS >= 2, SIZE <= 2;"
        )
        assert isinstance(result.payload, MiningReport)

    def test_script_execution(self, executor):
        results = executor.execute_script(
            "SHOW SUMMARY; SELECT COUNT(*) FROM transactions;"
        )
        assert len(results) == 2

    def test_no_store_sql_rejected(self, seasonal_data):
        environment = ExecutionEnvironment(store=None)
        environment.register("sales", seasonal_data.database)
        executor = TmlExecutor(environment)
        with pytest.raises(TmlExecutionError):
            executor.execute("SELECT 1;")
        with pytest.raises(TmlExecutionError):
            executor.execute("SHOW SUMMARY;")

    def test_mining_without_store_is_fine(self, seasonal_data):
        environment = ExecutionEnvironment(store=None)
        environment.register("sales", seasonal_data.database)
        executor = TmlExecutor(environment)
        result = executor.execute(
            "MINE PERIODS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6 HAVING SIZE <= 2;"
        )
        assert isinstance(result.payload, MiningReport)
