"""Chaos suite: deterministic fault injection against the full stack.

Marked ``chaos`` so CI can run it as its own job; the properties are
still fast and fully deterministic (seeded plans, injected clocks and
sleepers — no real waiting, no real contention).
"""

from __future__ import annotations

from datetime import datetime, timedelta

import pytest

from repro.db.sqlite_store import SqliteStore
from repro.errors import BudgetExceededError, TransientDatabaseError
from repro.mining.context import TemporalContext, per_unit_frequent_itemsets
from repro.mining.engine import TemporalMiner
from repro.mining.tasks import PeriodicityTask, RuleThresholds, ValidPeriodTask
from repro.mining.valid_periods import discover_valid_periods
from repro.mining.periodicities import discover_periodicities
from repro.runtime.budget import (
    STOP_CANCELLED,
    STOP_DEADLINE,
    CancellationToken,
    RunBudget,
    RunMonitor,
)
from repro.parallel import ShardedExecutor
from repro.runtime.faultinject import (
    DbFaultPlan,
    GranuleFaults,
    WorkerFaultPlan,
    inject_db_faults,
)
from repro.runtime.retry import RetryPolicy
from repro.system.session import IqmsSession
from repro.temporal.granularity import Granularity

pytestmark = pytest.mark.chaos


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# store faults → retry/backoff recovery
# ----------------------------------------------------------------------


class TestStoreChaos:
    def test_recovers_from_consecutive_locked_errors(self):
        sleeps = []
        store = SqliteStore(":memory:", sleep=sleeps.append)
        flaky = inject_db_faults(store, DbFaultPlan.first(2))
        tid = store.insert_transaction(datetime(2026, 1, 1), ["bread", "milk"])
        assert tid == 1
        assert flaky.failures_injected == 2
        assert len(sleeps) == 2  # one backoff per injected failure
        assert store.count_transactions() == 1

    def test_seeded_fault_plan_is_survivable_and_reproducible(self):
        plan = DbFaultPlan.seeded(seed=7, n_ops=40, fail_rate=0.3)
        assert plan == DbFaultPlan.seeded(seed=7, n_ops=40, fail_rate=0.3)
        store = SqliteStore(":memory:", sleep=lambda _s: None)
        flaky = inject_db_faults(store, plan)
        start = datetime(2026, 1, 1)
        for day in range(8):
            store.insert_transaction(start + timedelta(days=day), ["a", "b"])
        assert store.count_transactions() == 8
        assert flaky.failures_injected == len(
            plan.fail_ops & set(range(1, flaky.op_count + 1))
        )
        # Every injected failure was absorbed; the data is complete.
        loaded = store.load_database()
        assert len(loaded) == 8

    def test_unrelenting_contention_surfaces_typed_error(self):
        store = SqliteStore(
            ":memory:",
            retry_policy=RetryPolicy(max_attempts=3, jitter=0.0),
            sleep=lambda _s: None,
        )
        inject_db_faults(store, DbFaultPlan.first(50))
        with pytest.raises(TransientDatabaseError) as info:
            store.count_transactions()
        assert info.value.attempts == 3

    def test_non_transient_fault_not_retried(self):
        store = SqliteStore(":memory:", sleep=lambda _s: None)
        flaky = inject_db_faults(
            store, DbFaultPlan.first(1, error_message="disk I/O error")
        )
        with pytest.raises(Exception) as info:
            store.count_transactions()
        assert "disk I/O" in str(info.value)
        assert flaky.op_count == 1  # exactly one attempt, no retries


# ----------------------------------------------------------------------
# budget exhaustion → partial results are a sound subset
# ----------------------------------------------------------------------


def _task(granularity=Granularity.DAY):
    return ValidPeriodTask(
        granularity=granularity,
        thresholds=RuleThresholds(min_support=0.15, min_confidence=0.5),
    )


class TestPartialResultSoundness:
    def test_candidate_budgets_yield_subsets(self, random_db):
        task = _task()
        full = discover_valid_periods(random_db, task)
        full_by_key = {rule.key: rule for rule in full.results}
        saw_partial = False
        for max_candidates in (1, 4, 16, 64, 256, 4096):
            monitor = RunMonitor(budget=RunBudget(max_candidates=max_candidates))
            report = discover_valid_periods(random_db, task, monitor=monitor)
            assert report.diagnostics is not None
            keys = {rule.key for rule in report.results}
            assert keys <= set(full_by_key)
            # Retained counts are exact, so shared rules agree entirely
            # (same periods, same measures) — not just on the key.
            for rule in report.results:
                assert rule == full_by_key[rule.key]
            saw_partial = saw_partial or report.partial
            if not report.partial:
                assert keys == set(full_by_key)
        assert saw_partial  # the tightest budgets really did truncate

    def test_rule_budget_truncates_exactly(self, random_db):
        task = _task()
        full = discover_valid_periods(random_db, task)
        assert len(full.results) >= 2
        budget = RunBudget(max_rules=1)
        report = discover_valid_periods(
            random_db, task, monitor=RunMonitor(budget=budget)
        )
        assert report.partial
        assert report.diagnostics.stop_reason == "max_rules"
        assert len(report.results) == 1
        assert report.results[0] in full.results

    def test_periodicities_partial_subset(self, periodic_data):
        task = PeriodicityTask(
            granularity=Granularity.DAY,
            thresholds=RuleThresholds(min_support=0.3, min_confidence=0.6),
            max_period=7,
            min_match=0.8,
        )
        database = periodic_data.database
        full = discover_periodicities(database, task)
        budgeted = discover_periodicities(
            database, task, monitor=RunMonitor(budget=RunBudget(max_candidates=1))
        )
        budget_keys = {(f.key, str(f.periodicity)) for f in budgeted.results}
        full_keys = {(f.key, str(f.periodicity)) for f in full.results}
        assert budget_keys <= full_keys

    def test_deadline_with_slow_granules(self, random_db):
        clock = FakeClock()
        faults = GranuleFaults(slow_ticks={3: 10.0}, sleeper=clock.advance)
        monitor = RunMonitor(
            budget=RunBudget(max_seconds=5.0), clock=clock, granule_hook=faults
        )
        report = discover_valid_periods(random_db, _task(), monitor=monitor)
        assert report.partial
        assert report.diagnostics.stop_reason == STOP_DEADLINE
        assert faults.ticks_seen == 3  # stopped at the stalled granule
        # Level 1 never finished: no pass committed, no rules invented.
        assert report.diagnostics.passes_completed == 0
        assert len(report.results) == 0


# ----------------------------------------------------------------------
# cancellation mid-pass → session stays usable
# ----------------------------------------------------------------------


class TestCancellation:
    def test_mid_pass_cancel_returns_partial_then_recovers(self, random_db):
        token = CancellationToken()
        faults = GranuleFaults(cancel_at_tick=2, token=token)
        miner = TemporalMiner(random_db)
        task = _task()
        report = miner.valid_periods(task, token=token, granule_hook=faults)
        assert report.partial
        assert report.diagnostics.stop_reason == STOP_CANCELLED
        # Same miner, token reset: the next run completes normally.
        token.reset()
        full = miner.valid_periods(task, token=token)
        assert not full.partial
        assert full.diagnostics.completed

    def test_session_cancel_before_run_is_cleared(self, tiny_db):
        session = IqmsSession()
        session.load_database("sales", tiny_db)
        session.cancel()  # stray cancel between statements
        result = session.run(
            "MINE PERIODS FROM sales AT GRANULARITY day "
            "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.5;"
        )
        assert not result.payload.partial  # token was reset at run start


# ----------------------------------------------------------------------
# SET BUDGET through the whole system
# ----------------------------------------------------------------------


class TestSessionBudget:
    def _mine(self, session):
        return session.run(
            "MINE PERIODS FROM sales AT GRANULARITY day "
            "WITH SUPPORT >= 0.1, CONFIDENCE >= 0.3;"
        )

    def test_set_budget_round_trip(self, tiny_db):
        session = IqmsSession()
        session.load_database("sales", tiny_db)
        result = session.run("SET BUDGET CANDIDATES 1, RULES 5;")
        assert "candidates<=1" in result.text
        partial = self._mine(session)
        assert partial.payload.partial
        assert "PARTIAL" in partial.text
        session.run("SET BUDGET OFF;")
        full = self._mine(session)
        assert not full.payload.partial

    def test_strict_budget_raises(self, tiny_db):
        session = IqmsSession()
        session.load_database("sales", tiny_db)
        session.run("SET BUDGET CANDIDATES 1 STRICT;")
        with pytest.raises(BudgetExceededError) as info:
            self._mine(session)
        assert info.value.diagnostics is not None
        # The session survives the strict failure.
        session.run("SET BUDGET OFF;")
        assert not self._mine(session).payload.partial


# ----------------------------------------------------------------------
# worker faults → the sharded pool degrades to serial, never hangs
# ----------------------------------------------------------------------


class TestWorkerChaos:
    """Injected worker failures against the sharded executor.

    Each test runs a real parallel counting pass of
    :func:`per_unit_frequent_itemsets` with a :class:`WorkerFaultPlan`
    wired into the executor, so the fault fires inside an actual worker
    process.  The contract: the pool degrades to serial with a
    diagnostic, the run still finishes with output equal to the plain
    serial path, and nothing hangs.
    """

    def _serial(self, db):
        return discover_valid_periods(db, _task())

    def _sharded(self, db, executor, monitor=None):
        """Task 1 over counts the executor produced (rules from its passes)."""
        task = _task()
        context = TemporalContext(db, task.granularity)
        counts = per_unit_frequent_itemsets(
            context,
            task.thresholds.min_support,
            min_units=task.min_valid_units,
            max_size=task.max_rule_size,
            monitor=monitor,
            executor=executor,
        )
        return discover_valid_periods(
            db, task, context=context, counts=counts, monitor=monitor
        )

    def test_counting_error_degrades_with_diagnostic(self, random_db):
        serial = self._serial(random_db)
        with ShardedExecutor(3, fault_plan=WorkerFaultPlan.first(1)) as executor:
            with pytest.warns(RuntimeWarning, match="degraded to serial"):
                report = self._sharded(random_db, executor)
            assert executor.degraded
            assert "injected worker fault" in executor.degraded_reason
            assert executor.degraded_reason.startswith("RuntimeError")
        assert report.results == serial.results

    def test_killed_worker_degrades_with_diagnostic(self, random_db):
        serial = self._serial(random_db)
        plan = WorkerFaultPlan.first(1, kind="kill")
        with ShardedExecutor(3, fault_plan=plan) as executor:
            with pytest.warns(RuntimeWarning, match="degraded to serial"):
                report = self._sharded(random_db, executor)
            assert executor.degraded
            assert executor.degraded_reason.startswith("BrokenProcessPool")
        assert report.results == serial.results

    def test_degraded_executor_stays_serial_but_usable(self, random_db):
        serial = self._serial(random_db)
        with ShardedExecutor(2, fault_plan=WorkerFaultPlan.first(1)) as executor:
            with pytest.warns(RuntimeWarning):
                self._sharded(random_db, executor)
            assert not executor.effective()
            # The next run reuses the degraded executor: pure serial,
            # no new warning, same answer — the session stays usable.
            again = self._sharded(random_db, executor)
        assert again.results == serial.results

    def test_miner_facade_survives_worker_fault(self, random_db):
        # A fault in a later shard (not the first) of a mid-run pass.
        serial = TemporalMiner(random_db).valid_periods(_task())
        plan = WorkerFaultPlan.first(2)
        with ShardedExecutor(3, fault_plan=plan) as executor:
            with pytest.warns(RuntimeWarning, match="degraded to serial"):
                report = self._sharded(random_db, executor)
            assert executor.degraded
        assert report.results == serial.results

    def test_budget_interrupts_parallel_run_soundly(self, random_db):
        task = _task()
        full = discover_valid_periods(random_db, task)
        budget = RunBudget(max_candidates=16)
        serial_partial = discover_valid_periods(
            random_db, task, monitor=RunMonitor(budget=budget)
        )
        with ShardedExecutor(3) as executor:
            parallel_partial = self._sharded(
                random_db, executor, monitor=RunMonitor(budget=budget)
            )
            assert not executor.degraded
        assert parallel_partial.partial
        assert parallel_partial.results == serial_partial.results
        assert {r.key for r in parallel_partial.results} <= {
            r.key for r in full.results
        }
