"""``MINE ITEMSETS`` and ``MINE TRENDS`` run under the session's monitor.

Like every other ``MINE``, they honour ``SET BUDGET`` (stopping partial,
or raising under ``STRICT``) and the cancel token, and every report
carries the run's diagnostics.
"""

from __future__ import annotations

import pytest

from repro.errors import BudgetExceededError
from repro.tml.executor import ExecutionEnvironment, TmlExecutor

STATEMENTS = {
    "itemsets": "MINE ITEMSETS FROM sales AT GRANULARITY month WITH SUPPORT >= 0.05;",
    "trends": "MINE TRENDS FROM sales AT GRANULARITY month WITH SUPPORT >= 0.05;",
}


@pytest.fixture
def executor(seasonal_data):
    environment = ExecutionEnvironment()
    environment.register("sales", seasonal_data.database)
    return TmlExecutor(environment)


@pytest.mark.parametrize("kind", sorted(STATEMENTS))
def test_unbudgeted_run_is_complete_with_diagnostics(executor, kind):
    report = executor.execute(STATEMENTS[kind]).payload
    assert not report.partial
    assert report.diagnostics is not None
    assert report.diagnostics.stop_reason is None
    assert report.diagnostics.passes_completed >= 2
    assert report.diagnostics.candidates_generated > 1


@pytest.mark.parametrize("kind", sorted(STATEMENTS))
def test_a_one_candidate_budget_stops_the_run(executor, kind):
    full = executor.execute(STATEMENTS[kind]).payload
    executor.execute("SET BUDGET CANDIDATES 1, RULES 1;")
    report = executor.execute(STATEMENTS[kind]).payload
    assert report.partial
    assert report.diagnostics.stop_reason == "max_candidates"
    assert report.diagnostics.passes_completed < full.diagnostics.passes_completed
    assert len(report.results) <= len(full.results)


@pytest.mark.parametrize("kind", sorted(STATEMENTS))
def test_a_strict_budget_raises(executor, kind):
    executor.execute("SET BUDGET CANDIDATES 1 STRICT;")
    with pytest.raises(BudgetExceededError):
        executor.execute(STATEMENTS[kind])


@pytest.mark.parametrize("kind", sorted(STATEMENTS))
def test_a_cancelled_token_stops_the_run(executor, kind):
    executor.environment.cancel_token.cancel()
    report = executor.execute(STATEMENTS[kind]).payload
    assert report.partial
    assert report.diagnostics.stop_reason == "cancelled"
    assert not report.results
