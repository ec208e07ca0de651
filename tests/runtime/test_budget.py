"""Unit tests for RunBudget / CancellationToken / RunMonitor."""

from __future__ import annotations

import pytest

from repro.errors import (
    BudgetExceededError,
    MiningCancelledError,
    MiningParameterError,
    ReproError,
)
from repro.runtime.budget import (
    STOP_CANCELLED,
    STOP_DEADLINE,
    STOP_MAX_CANDIDATES,
    STOP_MAX_RULES,
    CancellationToken,
    RunBudget,
    RunInterrupted,
    RunMonitor,
)


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestRunBudget:
    def test_defaults_are_unlimited(self):
        budget = RunBudget()
        assert budget.is_unlimited()
        assert "unlimited" in budget.describe()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_seconds": 0},
            {"max_seconds": -1.5},
            {"max_candidates": 0},
            {"max_rules": -3},
            # JSON admits NaN and ±Infinity; bool is an int subclass.
            {"max_seconds": float("nan")},
            {"max_seconds": float("inf")},
            {"max_seconds": float("-inf")},
            {"max_seconds": True},
            {"max_seconds": "5"},
            {"max_candidates": 2.5},
            {"max_candidates": 3.0},
            {"max_candidates": True},
            {"max_rules": 1.5},
            {"max_rules": False},
            {"max_rules": "3"},
        ],
    )
    def test_invalid_limits_rejected(self, kwargs):
        with pytest.raises(MiningParameterError):
            RunBudget(**kwargs)

    def test_whole_and_fractional_limits_accepted(self):
        assert RunBudget(max_seconds=2).max_seconds == 2
        assert RunBudget(max_seconds=0.25, max_candidates=1, max_rules=1).max_rules == 1
        spec = RunBudget(max_seconds=1.5, max_candidates=4, strict=True).to_dict()
        assert RunBudget.from_dict(spec).to_dict() == spec

    def test_describe_lists_set_limits(self):
        budget = RunBudget(max_seconds=2.5, max_candidates=10, max_rules=3, strict=True)
        text = budget.describe()
        assert "time<=2.5s" in text
        assert "candidates<=10" in text
        assert "rules<=3" in text
        assert "strict" in text


class TestCancellationToken:
    def test_cancel_and_reset(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel()
        token.cancel()  # idempotent
        assert token.cancelled
        token.reset()
        assert not token.cancelled


class TestRunInterrupted:
    def test_not_a_repro_error(self):
        # It must never be swallowed by `except ReproError` handlers.
        assert not issubclass(RunInterrupted, ReproError)
        assert RunInterrupted("deadline").reason == "deadline"


class TestRunMonitor:
    def test_unlimited_monitor_never_stops(self):
        monitor = RunMonitor()
        monitor.tick_granules(range(100))
        monitor.charge_candidates(10_000)
        for _ in range(50):
            monitor.charge_rule()
        monitor.complete_pass()
        assert not monitor.stopped
        diagnostics = monitor.diagnostics()
        assert diagnostics.completed
        assert diagnostics.granules_covered == 100
        assert diagnostics.candidates_generated == 10_000
        assert diagnostics.rules_emitted == 50
        assert diagnostics.passes_completed == 1

    def test_deadline_stops_via_injected_clock(self):
        clock = FakeClock()
        monitor = RunMonitor(budget=RunBudget(max_seconds=5.0), clock=clock)
        monitor.checkpoint()  # within budget
        clock.advance(5.1)
        with pytest.raises(RunInterrupted):
            monitor.checkpoint()
        assert monitor.stop_reason == STOP_DEADLINE

    def test_cancellation_observed_at_checkpoint(self):
        token = CancellationToken()
        monitor = RunMonitor(token=token)
        monitor.checkpoint()
        token.cancel()
        with pytest.raises(RunInterrupted):
            monitor.tick_granules([0])
        assert monitor.stop_reason == STOP_CANCELLED

    def test_candidate_budget(self):
        monitor = RunMonitor(budget=RunBudget(max_candidates=10))
        monitor.charge_candidates(10)  # exactly at the limit is fine
        with pytest.raises(RunInterrupted):
            monitor.charge_candidates(1)
        assert monitor.stop_reason == STOP_MAX_CANDIDATES

    def test_rule_budget_emits_exactly_n(self):
        monitor = RunMonitor(budget=RunBudget(max_rules=3))
        emitted = 0
        with pytest.raises(RunInterrupted):
            for _ in range(10):
                monitor.charge_rule()
                emitted += 1
        assert emitted == 3
        assert monitor.stop_reason == STOP_MAX_RULES

    def test_stopped_monitor_keeps_raising(self):
        monitor = RunMonitor(budget=RunBudget(max_candidates=1))
        with pytest.raises(RunInterrupted):
            monitor.charge_candidates(2)
        with pytest.raises(RunInterrupted):
            monitor.checkpoint()
        with pytest.raises(RunInterrupted):
            monitor.tick_granules([7])

    def test_granule_hook_runs_before_the_check(self):
        token = CancellationToken()
        seen = []

        def hook(offset):
            seen.append(offset)
            token.cancel()

        monitor = RunMonitor(token=token, granule_hook=hook)
        # The hook cancels, and that very tick observes it.
        with pytest.raises(RunInterrupted):
            monitor.tick_granules([4])
        assert seen == [4]
        assert monitor.stop_reason == STOP_CANCELLED

    def test_raise_for_strict_noop_when_lenient_or_complete(self):
        RunMonitor().raise_for_strict()  # complete, lenient
        monitor = RunMonitor(budget=RunBudget(max_rules=1))
        with pytest.raises(RunInterrupted):
            for _ in range(2):
                monitor.charge_rule()
        monitor.raise_for_strict()  # stopped but not strict: no raise

    def test_raise_for_strict_budget(self):
        monitor = RunMonitor(budget=RunBudget(max_candidates=1, strict=True))
        with pytest.raises(RunInterrupted):
            monitor.charge_candidates(5)
        with pytest.raises(BudgetExceededError) as info:
            monitor.raise_for_strict()
        assert info.value.diagnostics.stop_reason == STOP_MAX_CANDIDATES

    def test_raise_for_strict_cancelled(self):
        token = CancellationToken()
        monitor = RunMonitor(budget=RunBudget(strict=True), token=token)
        token.cancel()
        with pytest.raises(RunInterrupted):
            monitor.checkpoint()
        with pytest.raises(MiningCancelledError) as info:
            monitor.raise_for_strict()
        assert info.value.diagnostics.stop_reason == STOP_CANCELLED

    def test_diagnostics_describe_mentions_reason(self):
        monitor = RunMonitor(budget=RunBudget(max_rules=1))
        with pytest.raises(RunInterrupted):
            for _ in range(2):
                monitor.charge_rule()
        text = monitor.diagnostics().describe()
        assert "stopped (max_rules)" in text
        assert "rules<=1" in text
