"""Unit tests for TML extensions: named calendars and EXPLAIN."""

import pytest

from repro.db.sqlite_store import SqliteStore
from repro.errors import TmlExecutionError, TmlParseError
from repro.temporal import Granularity, WEEKENDS
from repro.tml.ast import (
    ExplainStatement,
    MinePeriodsStatement,
    MineRulesStatement,
    NamedCalendarFeature,
)
from repro.tml.executor import ExecutionEnvironment, TmlExecutor, resolve_feature
from repro.tml.parser import parse_statement


class TestNamedCalendarFeature:
    def test_parse(self):
        statement = parse_statement(
            "MINE RULES FROM sales DURING weekends "
            "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6;"
        )
        assert statement.feature == NamedCalendarFeature("weekends")

    def test_roundtrip(self):
        statement = MineRulesStatement(
            source="sales",
            feature=NamedCalendarFeature("december"),
            min_support=0.3,
            min_confidence=0.6,
        )
        assert parse_statement(statement.render()) == statement

    def test_resolve_known(self):
        assert resolve_feature(NamedCalendarFeature("weekends")) is WEEKENDS
        assert resolve_feature(NamedCalendarFeature("WEEKENDS")) is WEEKENDS

    def test_resolve_unknown(self):
        with pytest.raises(TmlExecutionError) as exc_info:
            resolve_feature(NamedCalendarFeature("fullmoon"))
        assert "known:" in str(exc_info.value)

    def test_execute_named_calendar(self, periodic_data):
        environment = ExecutionEnvironment(store=None)
        environment.register("daily", periodic_data.database)
        executor = TmlExecutor(environment)
        result = executor.execute(
            "MINE RULES FROM daily DURING weekends "
            "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6 HAVING SIZE <= 2;"
        )
        assert "weekend_a" in result.text


class TestExplain:
    def test_parse_and_roundtrip(self):
        statement = parse_statement(
            "EXPLAIN MINE PERIODS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6;"
        )
        assert isinstance(statement, ExplainStatement)
        assert isinstance(statement.inner, MinePeriodsStatement)
        assert parse_statement(statement.render()) == statement

    def test_explain_requires_mine(self):
        with pytest.raises(TmlParseError):
            parse_statement("EXPLAIN SHOW SUMMARY;")

    def test_explain_periods(self, seasonal_data):
        environment = ExecutionEnvironment(store=None)
        environment.register("sales", seasonal_data.database)
        executor = TmlExecutor(environment)
        result = executor.execute(
            "EXPLAIN MINE PERIODS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6;"
        )
        properties = dict(result.payload.rows)
        assert properties["statement"] == "MinePeriodsStatement"
        assert properties["units_spanned"] == "12"
        assert int(properties["transactions"]) == len(seasonal_data.database)

    def test_units_spanned_counts_a_last_unit_that_starts_on_the_boundary(self):
        """The last basket opens its unit, so that unit is spanned too."""
        from datetime import datetime

        from repro.core.transactions import TransactionDatabase

        database = TransactionDatabase()
        database.add(datetime(2025, 1, 1), ["a", "b"])
        database.add(datetime(2025, 1, 2), ["a", "b"])
        environment = ExecutionEnvironment(store=None)
        environment.register("sales", database)
        executor = TmlExecutor(environment)
        statement = (
            "MINE PERIODS FROM sales AT GRANULARITY day "
            "WITH SUPPORT >= 0.5, CONFIDENCE >= 0.5;"
        )
        properties = dict(executor.execute("EXPLAIN " + statement).payload.rows)
        assert properties["units_spanned"] == "2"
        assert properties["plan: est workload"].endswith("over 2 units")
        assert executor.execute(statement).payload.n_units == 2

    def test_explain_rules_reports_feature_size(self, seasonal_data):
        environment = ExecutionEnvironment(store=None)
        environment.register("sales", seasonal_data.database)
        executor = TmlExecutor(environment)
        result = executor.execute(
            "EXPLAIN MINE RULES FROM sales DURING CALENDAR 'month=12' "
            "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6;"
        )
        properties = dict(result.payload.rows)
        assert 0 < int(properties["transactions_in_feature"]) < len(
            seasonal_data.database
        )
        assert "month=12" in properties["feature"]

    def test_explain_periodicities_shows_algorithm(self, seasonal_data):
        environment = ExecutionEnvironment(store=None)
        environment.register("sales", seasonal_data.database)
        executor = TmlExecutor(environment)
        result = executor.execute(
            "EXPLAIN MINE PERIODICITIES FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6 USING INTERLEAVED;"
        )
        properties = dict(result.payload.rows)
        assert properties["algorithm"] == "interleaved"

    def test_explain_does_not_mine(self, seasonal_data):
        """EXPLAIN must return quickly with a plan, not findings."""
        environment = ExecutionEnvironment(store=None)
        environment.register("sales", seasonal_data.database)
        executor = TmlExecutor(environment)
        result = executor.execute(
            "EXPLAIN MINE PERIODS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.0001, CONFIDENCE >= 0.0;"  # would be huge to mine
        )
        assert "property" in result.text


class TestCalendarCombos:
    def test_parse_and_roundtrip(self):
        from repro.tml.ast import CalendarComboFeature, CalendarFeature

        statement = parse_statement(
            "MINE RULES FROM sales DURING CALENDAR 'month=12' OR CALENDAR 'month=1' "
            "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6;"
        )
        assert isinstance(statement.feature, CalendarComboFeature)
        assert statement.feature.op == "OR"
        assert parse_statement(statement.render()) == statement

    def test_left_associative(self):
        from repro.tml.ast import CalendarComboFeature

        statement = parse_statement(
            "MINE RULES FROM sales DURING weekends AND CALENDAR 'month=12' "
            "MINUS CALENDAR 'day=25' "
            "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6;"
        )
        outer = statement.feature
        assert outer.op == "MINUS"
        assert isinstance(outer.left, CalendarComboFeature)
        assert outer.left.op == "AND"

    def test_cannot_combine_period(self):
        with pytest.raises(TmlParseError):
            parse_statement(
                "MINE RULES FROM sales DURING PERIOD '2025-01-01' TO '2025-02-01' "
                "AND weekends WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6;"
            )

    def test_resolve_to_calendar_expression(self):
        from datetime import datetime

        from repro.tml.ast import CalendarComboFeature, CalendarFeature

        combo = CalendarComboFeature(
            op="AND",
            left=CalendarFeature("month=12"),
            right=NamedCalendarFeature("weekends"),
        )
        expression = resolve_feature(combo)
        assert expression.matches_instant(datetime(2026, 12, 5))   # Dec Saturday
        assert not expression.matches_instant(datetime(2026, 12, 7))  # Dec Monday
        assert not expression.matches_instant(datetime(2026, 11, 7))  # Nov Saturday

    def test_execute_combo(self, seasonal_data):
        environment = ExecutionEnvironment(store=None)
        environment.register("sales", seasonal_data.database)
        executor = TmlExecutor(environment)
        result = executor.execute(
            "MINE RULES FROM sales DURING CALENDAR 'month=6|7|8' OR CALENDAR 'month=12' "
            "WITH SUPPORT >= 0.25, CONFIDENCE >= 0.6 HAVING SIZE <= 2;"
        )
        assert "season0_a" in result.text


class TestContaining:
    def test_parse_and_roundtrip(self):
        statement = parse_statement(
            "MINE RULES FROM sales DURING weekends CONTAINING 'milk', 'bread' "
            "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6;"
        )
        assert statement.containing == ("milk", "bread")
        assert parse_statement(statement.render()) == statement

    def test_filters_rules(self, seasonal_data):
        environment = ExecutionEnvironment(store=None)
        environment.register("sales", seasonal_data.database)
        executor = TmlExecutor(environment)
        unconstrained = executor.execute(
            "MINE RULES FROM sales DURING PERIOD '2025-06-01' TO '2025-09-01' "
            "WITH SUPPORT >= 0.1, CONFIDENCE >= 0.3 HAVING SIZE <= 2;"
        )
        constrained = executor.execute(
            "MINE RULES FROM sales DURING PERIOD '2025-06-01' TO '2025-09-01' "
            "CONTAINING 'season0_a' "
            "WITH SUPPORT >= 0.1, CONFIDENCE >= 0.3 HAVING SIZE <= 2;"
        )
        assert 0 < len(constrained.payload) < len(unconstrained.payload)
        catalog = seasonal_data.database.catalog
        wanted = catalog.id("season0_a")
        for record in constrained.payload:
            assert wanted in record.key.itemset

    def test_unknown_label_yields_empty(self, seasonal_data):
        environment = ExecutionEnvironment(store=None)
        environment.register("sales", seasonal_data.database)
        executor = TmlExecutor(environment)
        result = executor.execute(
            "MINE RULES FROM sales DURING PERIOD '2025-06-01' TO '2025-09-01' "
            "CONTAINING 'ghost_item' "
            "WITH SUPPORT >= 0.1, CONFIDENCE >= 0.3;"
        )
        assert len(result.payload) == 0


class TestMineItemsets:
    def test_parse_and_roundtrip(self):
        from repro.tml.ast import MineItemsetsStatement

        statement = parse_statement(
            "MINE ITEMSETS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.25 HAVING COVERAGE >= 3, SIZE <= 2;"
        )
        assert isinstance(statement, MineItemsetsStatement)
        assert statement.min_coverage == 3
        assert parse_statement(statement.render()) == statement

    def test_execute(self, seasonal_data):
        environment = ExecutionEnvironment(store=None)
        environment.register("sales", seasonal_data.database)
        executor = TmlExecutor(environment)
        result = executor.execute(
            "MINE ITEMSETS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.3 HAVING COVERAGE >= 2, SIZE <= 2;"
        )
        assert "season0_a, season0_b" in result.text
        assert result.payload.task_name == "itemset_periods"

    def test_export_itemset_report(self, seasonal_data):
        import csv
        import io

        from repro.mining import RuleThresholds, ValidPeriodTask
        from repro.mining.itemset_periods import discover_itemset_periods
        from repro.system.export import to_csv

        report = discover_itemset_periods(
            seasonal_data.database,
            ValidPeriodTask(
                granularity=Granularity.MONTH,
                thresholds=RuleThresholds(0.3, 0.0),
                max_rule_size=2,
            ),
        )
        text = to_csv(report, seasonal_data.database.catalog)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows
        assert "itemset" in rows[0]


class TestProfileStatement:
    def test_parse_and_roundtrip(self):
        from repro.tml.ast import ProfileStatement

        statement = parse_statement("PROFILE 'a', 'b' FROM sales BY month;")
        assert statement == ProfileStatement(
            labels=("a", "b"), source="sales", granularity=Granularity.MONTH
        )
        assert parse_statement(statement.render()) == statement

    def test_execute(self, seasonal_data):
        environment = ExecutionEnvironment(store=None)
        environment.register("sales", seasonal_data.database)
        executor = TmlExecutor(environment)
        result = executor.execute(
            "PROFILE 'season0_a', 'season0_b' FROM sales BY month;"
        )
        assert "burstiness" in result.text
        assert result.payload.n_units == 12

    def test_unknown_label(self, seasonal_data):
        environment = ExecutionEnvironment(store=None)
        environment.register("sales", seasonal_data.database)
        executor = TmlExecutor(environment)
        with pytest.raises(TmlExecutionError):
            executor.execute("PROFILE 'ghost' FROM sales BY month;")

    def test_profile_counts_as_data_understanding(self, seasonal_data):
        from repro.system.session import IqmsSession
        from repro.system.workflow import Stage

        session = IqmsSession()
        session.load_database("sales", seasonal_data.database)
        session.run("PROFILE 'season0_a' FROM sales BY month;")
        assert session.workflow.stage is Stage.DATA_UNDERSTANDING


class TestMineTrends:
    @pytest.fixture(scope="class")
    def trending_env(self):
        from datetime import datetime

        from repro.datagen import (
            EmbeddedTrend,
            TemporalDatasetSpec,
            generate_temporal_dataset,
        )
        from repro.datagen.quest import QuestConfig

        spec = TemporalDatasetSpec(
            quest=QuestConfig(n_transactions=2000, n_items=150, n_patterns=30, seed=3),
            start=datetime(2025, 1, 1),
            end=datetime(2026, 1, 1),
            trends=(EmbeddedTrend(("fad_a", "fad_b"), 0.02, 0.7),),
            seed=4,
        )
        dataset = generate_temporal_dataset(spec)
        environment = ExecutionEnvironment(store=None)
        environment.register("sales", dataset.database)
        return TmlExecutor(environment), dataset

    def test_parse_and_roundtrip(self):
        from repro.tml.ast import MineTrendsStatement

        statement = parse_statement(
            "MINE TRENDS FROM sales AT GRANULARITY week "
            "WITH SUPPORT >= 0.05 HAVING CHANGE >= 0.2, FIT >= 0.8, SIZE <= 2;"
        )
        assert isinstance(statement, MineTrendsStatement)
        assert statement.min_change == 0.2
        assert statement.min_fit == 0.8
        assert parse_statement(statement.render()) == statement

    def test_defaults(self):
        statement = parse_statement(
            "MINE TRENDS FROM sales AT GRANULARITY month WITH SUPPORT >= 0.1;"
        )
        assert statement.min_change == 0.1
        assert statement.min_fit == 0.5

    def test_execute_finds_embedded_trend(self, trending_env):
        executor, dataset = trending_env
        result = executor.execute(
            "MINE TRENDS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.05 HAVING CHANGE >= 0.4;"
        )
        assert "emerging" in result.text
        assert "fad_a" in result.text

    def test_trend_export(self, trending_env):
        import csv
        import io

        from repro.system.export import to_csv

        executor, dataset = trending_env
        result = executor.execute(
            "MINE TRENDS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.05 HAVING CHANGE >= 0.4;"
        )
        rows = list(csv.DictReader(io.StringIO(
            to_csv(result.payload, dataset.database.catalog)
        )))
        assert rows
        assert rows[0]["direction"] == "emerging"

    def test_counts_as_mining_round(self, trending_env):
        from repro.system.session import IqmsSession
        from repro.system.workflow import Stage

        _executor, dataset = trending_env
        session = IqmsSession()
        session.load_database("sales", dataset.database)
        session.run(
            "MINE TRENDS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.05 HAVING CHANGE >= 0.4;"
        )
        assert session.workflow.stage is Stage.RESULT_ANALYSIS
        assert session.workflow.iterations == 1


class TestSetTrace:
    def test_parse_and_roundtrip(self):
        from repro.tml.ast import SetTraceStatement

        on = parse_statement("SET TRACE ON;")
        assert on == SetTraceStatement(on=True)
        assert on.render() == "SET TRACE ON;"
        off = parse_statement("SET TRACE OFF;")
        assert off == SetTraceStatement(on=False)
        assert parse_statement(off.render()) == off

    def test_rejects_other_values(self):
        with pytest.raises(TmlParseError):
            parse_statement("SET TRACE maybe;")

    def test_toggles_environment_and_reports(self, seasonal_data):
        environment = ExecutionEnvironment(store=None)
        environment.register("sales", seasonal_data.database)
        executor = TmlExecutor(environment)
        result = executor.execute("SET TRACE ON;")
        assert dict(result.payload.rows)["trace"] == "on"
        assert environment.trace is True
        mined = executor.execute(
            "MINE PERIODS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6;"
        )
        assert mined.payload.trace is not None
        executor.execute("SET TRACE OFF;")
        assert environment.trace is False
        untraced = executor.execute(
            "MINE PERIODS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6;"
        )
        assert untraced.payload.trace is None


class TestExplainAnalyze:
    def test_parse_and_roundtrip(self):
        statement = parse_statement(
            "EXPLAIN ANALYZE MINE PERIODS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6;"
        )
        assert isinstance(statement, ExplainStatement)
        assert statement.analyze is True
        assert statement.render().startswith("EXPLAIN ANALYZE MINE PERIODS")
        assert parse_statement(statement.render()) == statement

    def test_plain_explain_keeps_analyze_false(self):
        statement = parse_statement(
            "EXPLAIN MINE PERIODS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6;"
        )
        assert statement.analyze is False

    def test_runs_and_reports_telemetry(self, seasonal_data):
        environment = ExecutionEnvironment(store=None)
        environment.register("sales", seasonal_data.database)
        executor = TmlExecutor(environment)
        result = executor.execute(
            "EXPLAIN ANALYZE MINE PERIODS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6;"
        )
        rows = list(result.payload.rows)
        properties = dict(rows)
        assert properties["statement"] == "MinePeriodsStatement"
        assert int(properties["results"]) > 0
        assert int(properties["passes_completed"]) > 0
        assert int(properties["candidates_generated"]) > 0
        trace_lines = [value for name, value in rows if name == "trace"]
        assert any(line.strip().startswith("count") for line in trace_lines)

    def test_leaves_trace_setting_untouched(self, seasonal_data):
        environment = ExecutionEnvironment(store=None)
        environment.register("sales", seasonal_data.database)
        executor = TmlExecutor(environment)
        assert environment.trace is False
        executor.execute(
            "EXPLAIN ANALYZE MINE PERIODS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6;"
        )
        assert environment.trace is False
