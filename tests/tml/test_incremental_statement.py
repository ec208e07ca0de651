"""Unit tests for ``SET INCREMENTAL`` — parse, render, execute, EXPLAIN."""

import warnings

import pytest

from repro.errors import TmlExecutionError, TmlParseError
from repro.mining.engine import _incremental_from_env
from repro.tml.ast import SetIncrementalStatement
from repro.tml.canonical import canonicalize
from repro.tml.executor import ExecutionEnvironment, TmlExecutor
from repro.tml.parser import parse_statement


@pytest.fixture(autouse=True)
def no_incremental_env(monkeypatch):
    monkeypatch.delenv("REPRO_INCREMENTAL", raising=False)


class TestParse:
    @pytest.mark.parametrize("mode", ("on", "off", "auto"))
    def test_parse_and_roundtrip(self, mode):
        statement = parse_statement(f"SET INCREMENTAL {mode.upper()};")
        assert statement == SetIncrementalStatement(mode=mode)
        assert statement.render() == f"SET INCREMENTAL {mode.upper()};"
        assert parse_statement(statement.render()) == statement

    def test_keywords_are_case_insensitive(self):
        assert parse_statement("set incremental auto;") == SetIncrementalStatement(
            mode="auto"
        )

    def test_canonicalizes(self):
        assert canonicalize("set   incremental ON ;") == "SET INCREMENTAL ON;"

    @pytest.mark.parametrize(
        "text",
        (
            "SET INCREMENTAL;",
            "SET INCREMENTAL maybe;",
            "SET INCREMENTAL 1;",
        ),
    )
    def test_rejects_other_values(self, text):
        with pytest.raises(TmlParseError):
            parse_statement(text)


class TestExecute:
    def test_toggles_environment_and_reports(self, seasonal_data):
        environment = ExecutionEnvironment(store=None)
        environment.register("sales", seasonal_data.database)
        executor = TmlExecutor(environment)
        assert environment.incremental == "off"
        result = executor.execute("SET INCREMENTAL AUTO;")
        assert dict(result.payload.rows)["incremental"] == "auto"
        assert environment.incremental == "auto"
        executor.execute("SET INCREMENTAL OFF;")
        assert environment.incremental == "off"

    def test_updates_cached_miners(self, seasonal_data):
        environment = ExecutionEnvironment(store=None)
        environment.register("sales", seasonal_data.database)
        miner = environment.miner("sales")
        assert miner.incremental == "off"
        environment.set_incremental("on")
        assert miner.incremental == "on"
        assert environment.miner("sales") is miner

    def test_rejects_unknown_mode(self):
        environment = ExecutionEnvironment(store=None)
        with pytest.raises(TmlExecutionError):
            environment.set_incremental("sometimes")

    def test_explain_shows_refresh_decision_when_enabled(self, seasonal_data):
        environment = ExecutionEnvironment(store=None)
        environment.register("sales", seasonal_data.database)
        executor = TmlExecutor(environment)
        explain = (
            "EXPLAIN MINE PERIODS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6;"
        )
        off_rows = dict(executor.execute(explain).payload.rows)
        assert not any(k.startswith("incremental") for k in off_rows)
        executor.execute("SET INCREMENTAL AUTO;")
        on_rows = dict(executor.execute(explain).payload.rows)
        assert on_rows["incremental: mode"] == "AUTO"
        assert on_rows["incremental: strategy"] == "full"  # cold start
        assert "cold start" in on_rows["incremental: note"]

    def test_mining_results_identical_across_modes(self, seasonal_data):
        query = (
            "MINE PERIODS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6;"
        )
        outputs = {}
        for mode in ("off", "on", "auto"):
            environment = ExecutionEnvironment(store=None)
            environment.register("sales", seasonal_data.database)
            executor = TmlExecutor(environment)
            executor.execute(f"SET INCREMENTAL {mode.upper()};")
            outputs[mode] = executor.execute(query).payload.results
        assert outputs["off"] == outputs["on"] == outputs["auto"]


class TestEnvironmentVariable:
    def test_unset_defaults_off(self):
        assert _incremental_from_env() == "off"

    @pytest.mark.parametrize("value", ("on", "OFF", "Auto"))
    def test_valid_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_INCREMENTAL", value)
        assert _incremental_from_env() == value.lower()

    def test_malformed_warns_and_defaults_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_INCREMENTAL", "yes-please")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _incremental_from_env() == "off"
        assert any("REPRO_INCREMENTAL" in str(w.message) for w in caught)

    def test_environment_picks_up_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_INCREMENTAL", "auto")
        environment = ExecutionEnvironment(store=None)
        assert environment.incremental == "auto"
