"""Unit tests for the TML parser: grammar coverage and round-trips."""

import pytest

from repro.errors import TmlParseError
from repro.temporal import Granularity
from repro.tml.ast import (
    CalendarFeature,
    CyclicFeature,
    MinePeriodicitiesStatement,
    MinePeriodsStatement,
    MineRulesStatement,
    PeriodFeature,
    SetEngineStatement,
    SetWorkersStatement,
    ShowStatement,
    SqlStatement,
)
from repro.tml.parser import parse_script, parse_statement, split_statements


class TestSplitStatements:
    def test_basic_split(self):
        assert split_statements("A; B; C;") == ["A", "B", "C"]

    def test_semicolon_inside_string_preserved(self):
        chunks = split_statements("MINE RULES DURING CALENDAR 'a;b'; SELECT 1;")
        assert len(chunks) == 2
        assert "a;b" in chunks[0]

    def test_comments_stripped(self):
        chunks = split_statements("-- hello\nSELECT 1; -- bye\n")
        assert chunks == ["SELECT 1"]

    def test_unterminated_tail_kept(self):
        assert split_statements("SELECT 1") == ["SELECT 1"]

    def test_escaped_quotes(self):
        chunks = split_statements("SELECT 'it''s; fine'; SELECT 2;")
        assert len(chunks) == 2


class TestSqlPassthrough:
    def test_select_is_sql(self):
        statement = parse_statement("SELECT item, COUNT(*) FROM transactions GROUP BY item;")
        assert isinstance(statement, SqlStatement)
        assert statement.sql.startswith("SELECT")

    def test_arbitrary_characters_survive(self):
        statement = parse_statement("SELECT * FROM t WHERE x > 1.5 AND y LIKE '%z%';")
        assert isinstance(statement, SqlStatement)
        assert "%z%" in statement.sql


class TestShow:
    def test_show_summary(self):
        assert parse_statement("SHOW SUMMARY;") == ShowStatement(what="summary")

    def test_show_items_with_limit(self):
        assert parse_statement("SHOW ITEMS LIMIT 5;") == ShowStatement(
            what="items", limit=5
        )

    def test_show_volume(self):
        assert parse_statement("SHOW VOLUME BY week;") == ShowStatement(
            what="volume", granularity=Granularity.WEEK
        )

    def test_show_garbage(self):
        with pytest.raises(TmlParseError):
            parse_statement("SHOW EVERYTHING;")


class TestMinePeriods:
    def test_full_form(self):
        statement = parse_statement(
            "MINE PERIODS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6 "
            "HAVING FREQUENCY >= 0.9, COVERAGE >= 3, SIZE <= 4, CONSEQUENT <= 2;"
        )
        assert statement == MinePeriodsStatement(
            source="sales",
            granularity=Granularity.MONTH,
            min_support=0.2,
            min_confidence=0.6,
            min_frequency=0.9,
            min_coverage=3,
            max_size=4,
            max_consequent=2,
        )

    def test_defaults(self):
        statement = parse_statement(
            "MINE PERIODS FROM sales AT GRANULARITY day "
            "WITH SUPPORT >= 0.1, CONFIDENCE >= 0.5;"
        )
        assert statement.min_frequency == 1.0
        assert statement.min_coverage == 2
        assert statement.max_consequent == 1

    def test_and_separators(self):
        statement = parse_statement(
            "MINE PERIODS FROM sales AT GRANULARITY day "
            "WITH SUPPORT >= 0.1 AND CONFIDENCE >= 0.5 "
            "HAVING FREQUENCY >= 0.8 AND COVERAGE >= 2;"
        )
        assert statement.min_frequency == 0.8

    def test_missing_granularity(self):
        with pytest.raises(TmlParseError):
            parse_statement(
                "MINE PERIODS FROM sales WITH SUPPORT >= 0.1, CONFIDENCE >= 0.5;"
            )

    def test_missing_confidence(self):
        with pytest.raises(TmlParseError):
            parse_statement(
                "MINE PERIODS FROM sales AT GRANULARITY day WITH SUPPORT >= 0.1;"
            )

    def test_duplicate_having(self):
        with pytest.raises(TmlParseError):
            parse_statement(
                "MINE PERIODS FROM sales AT GRANULARITY day "
                "WITH SUPPORT >= 0.1, CONFIDENCE >= 0.5 "
                "HAVING COVERAGE >= 2, COVERAGE >= 3;"
            )

    def test_wrong_having_term(self):
        with pytest.raises(TmlParseError):
            parse_statement(
                "MINE PERIODS FROM sales AT GRANULARITY day "
                "WITH SUPPORT >= 0.1, CONFIDENCE >= 0.5 HAVING PERIOD <= 5;"
            )


class TestMinePeriodicities:
    def test_full_form(self):
        statement = parse_statement(
            "MINE PERIODICITIES FROM sales AT GRANULARITY day "
            "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6 "
            "HAVING PERIOD <= 31, MATCH >= 0.9, REPETITIONS >= 4 "
            "INCLUDING CALENDAR 'weekday=5|6', CALENDAR 'month=12' "
            "USING INTERLEAVED;"
        )
        assert isinstance(statement, MinePeriodicitiesStatement)
        assert statement.max_period == 31
        assert statement.min_match == 0.9
        assert statement.min_repetitions == 4
        assert statement.calendars == ("weekday=5|6", "month=12")
        assert statement.interleaved is True

    def test_defaults(self):
        statement = parse_statement(
            "MINE PERIODICITIES FROM sales AT GRANULARITY week "
            "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6;"
        )
        assert statement.max_period == 12
        assert statement.min_match == 1.0
        assert statement.interleaved is False
        assert statement.calendars == ()

    def test_using_requires_interleaved(self):
        with pytest.raises(TmlParseError):
            parse_statement(
                "MINE PERIODICITIES FROM sales AT GRANULARITY day "
                "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6 USING MAGIC;"
            )


class TestMineRules:
    def test_period_feature(self):
        statement = parse_statement(
            "MINE RULES FROM sales DURING PERIOD '2025-06-01' TO '2025-09-01' "
            "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6;"
        )
        assert statement.feature == PeriodFeature("2025-06-01", "2025-09-01")

    def test_calendar_feature(self):
        statement = parse_statement(
            "MINE RULES FROM sales DURING CALENDAR 'month=12' "
            "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6;"
        )
        assert statement.feature == CalendarFeature("month=12")

    def test_cyclic_feature_with_offset(self):
        statement = parse_statement(
            "MINE RULES FROM sales DURING EVERY 7 day OFFSET 2 "
            "AT GRANULARITY day WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6;"
        )
        assert statement.feature == CyclicFeature(7, Granularity.DAY, 2)
        assert statement.granularity is Granularity.DAY

    def test_cyclic_feature_without_offset(self):
        statement = parse_statement(
            "MINE RULES FROM sales DURING EVERY 2 week "
            "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6;"
        )
        assert statement.feature == CyclicFeature(2, Granularity.WEEK, 0)

    def test_missing_during(self):
        with pytest.raises(TmlParseError):
            parse_statement(
                "MINE RULES FROM sales WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6;"
            )

    def test_unknown_identifier_parses_as_named_calendar(self):
        # Unknown names are a *semantic* error (caught at execution), not
        # a syntax error — the parser accepts any identifier feature.
        from repro.tml.ast import NamedCalendarFeature

        statement = parse_statement(
            "MINE RULES FROM sales DURING FULLMOON "
            "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6;"
        )
        assert statement.feature == NamedCalendarFeature("FULLMOON")

    def test_bad_feature_keyword(self):
        with pytest.raises(TmlParseError):
            parse_statement(
                "MINE RULES FROM sales DURING 42 "
                "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6;"
            )

    def test_trailing_garbage(self):
        with pytest.raises(TmlParseError):
            parse_statement(
                "MINE RULES FROM sales DURING CALENDAR 'month=12' "
                "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6 EXTRA;"
            )

    def test_non_integer_where_integer_needed(self):
        with pytest.raises(TmlParseError):
            parse_statement(
                "MINE RULES FROM sales DURING EVERY 2.5 day "
                "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6;"
            )


class TestSetEngine:
    def test_engine_name(self):
        statement = parse_statement("SET ENGINE vertical;")
        assert statement == SetEngineStatement(engine="vertical")

    def test_engine_name_lowercased(self):
        statement = parse_statement("set engine HASHTREE;")
        assert statement == SetEngineStatement(engine="hashtree")

    def test_engine_off(self):
        statement = parse_statement("SET ENGINE OFF;")
        assert statement == SetEngineStatement(off=True)

    def test_missing_name(self):
        with pytest.raises(TmlParseError):
            parse_statement("SET ENGINE;")

    def test_engine_auto(self):
        statement = parse_statement("SET ENGINE AUTO;")
        assert statement == SetEngineStatement(engine="auto")

    def test_unknown_engine_rejected_at_parse_time(self):
        with pytest.raises(TmlParseError) as excinfo:
            parse_statement("SET ENGINE btree;")
        message = str(excinfo.value)
        assert "'btree'" in message
        assert "auto" in message
        assert "packed" in message and "vertical" in message

    def test_render(self):
        assert SetEngineStatement(engine="dict").render() == "SET ENGINE dict;"
        assert SetEngineStatement(off=True).render() == "SET ENGINE OFF;"
        assert SetEngineStatement(engine="auto").render() == "SET ENGINE AUTO;"


class TestSetWorkers:
    def test_integer(self):
        assert parse_statement("SET WORKERS 4;") == SetWorkersStatement(workers=4)

    def test_auto(self):
        assert parse_statement("SET WORKERS AUTO;") == SetWorkersStatement(
            workers=None
        )

    def test_off_pins_serial(self):
        statement = parse_statement("SET WORKERS OFF;")
        assert statement == SetWorkersStatement(workers=1, off=True)

    @pytest.mark.parametrize("value", ["zero", "0", "2.5"])
    def test_malformed_count_names_value_and_choices(self, value):
        with pytest.raises(TmlParseError) as excinfo:
            parse_statement(f"SET WORKERS {value};")
        message = str(excinfo.value)
        assert "invalid worker count" in message
        assert "AUTO, OFF, or an integer >= 1" in message

    def test_render(self):
        assert SetWorkersStatement(workers=4).render() == "SET WORKERS 4;"
        assert SetWorkersStatement(workers=None).render() == "SET WORKERS AUTO;"
        assert SetWorkersStatement(workers=1, off=True).render() == "SET WORKERS OFF;"


class TestRoundTrips:
    STATEMENTS = [
        MinePeriodsStatement(
            source="sales",
            granularity=Granularity.MONTH,
            min_support=0.2,
            min_confidence=0.6,
            min_frequency=0.9,
            min_coverage=3,
            max_size=4,
            max_consequent=2,
        ),
        MinePeriodicitiesStatement(
            source="sales",
            granularity=Granularity.DAY,
            min_support=0.15,
            min_confidence=0.5,
            max_period=31,
            min_match=0.85,
            min_repetitions=4,
            calendars=("weekday=5|6",),
            interleaved=True,
            max_size=3,
            max_consequent=1,
        ),
        MineRulesStatement(
            source="sales",
            feature=PeriodFeature("2025-06-01", "2025-09-01"),
            min_support=0.3,
            min_confidence=0.6,
            max_consequent=1,
        ),
        MineRulesStatement(
            source="sales",
            feature=CyclicFeature(7, Granularity.DAY, 2),
            granularity=Granularity.DAY,
            min_support=0.3,
            min_confidence=0.6,
            max_size=3,
            max_consequent=0,
        ),
        MineRulesStatement(
            source="sales",
            feature=CalendarFeature("month=12 day=1..7"),
            min_support=0.25,
            min_confidence=0.7,
            max_consequent=2,
        ),
        SetEngineStatement(engine="vertical"),
        SetEngineStatement(engine="auto"),
        SetEngineStatement(off=True),
        SetWorkersStatement(workers=2),
        SetWorkersStatement(workers=None),
        SetWorkersStatement(workers=1, off=True),
        ShowStatement(what="summary"),
        ShowStatement(what="items", limit=7),
        ShowStatement(what="volume", granularity=Granularity.WEEK),
        SqlStatement(sql="SELECT COUNT(*) FROM transactions"),
    ]

    @pytest.mark.parametrize("statement", STATEMENTS, ids=lambda s: type(s).__name__)
    def test_parse_render_roundtrip(self, statement):
        assert parse_statement(statement.render()) == statement

    def test_script_roundtrip(self):
        script = "\n".join(s.render() for s in self.STATEMENTS)
        assert parse_script(script) == self.STATEMENTS

    def test_string_escaping_roundtrip(self):
        statement = MineRulesStatement(
            source="sales",
            feature=CalendarFeature("it's"),
            min_support=0.3,
            min_confidence=0.6,
        )
        assert parse_statement(statement.render()) == statement
