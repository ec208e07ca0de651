"""E14 — resilience overhead: what a deadline adds to a monitored run.

Every mining run has a run monitor, so there is no unmonitored path left
to compare against.  What a budget can still add is the deadline: with
one set, every checkpoint (once per granule, once per counting block)
also reads the clock.  This experiment times the E6 size-up workload
(same Quest parameters) twice — with no budget and with a one-hour
deadline that never binds (every check runs, nothing ever stops) — and
reports the relative overhead.  Target: < 5%; the assertion bound is
looser (25%) because single-round wall-clock ratios on a shared machine
are noisy.
"""

import time

from benchmarks.conftest import emit
from repro.core import apriori
from repro.datagen import QuestConfig
from repro.mining import RuleThresholds, TemporalMiner, ValidPeriodTask
from repro.runtime import RunBudget, RunMonitor
from repro.temporal import Granularity

N_TRANSACTIONS = 10000
#: A deadline no run here comes near: it is checked, never hit.
NEVER_BINDS = RunBudget(max_seconds=3600.0)


def config_for(n):
    return QuestConfig(
        n_transactions=n,
        avg_transaction_size=8,
        avg_pattern_size=4,
        n_items=500,
        n_patterns=100,
        seed=17,
    )


def _best_of(callable_, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def test_e14_apriori_deadline_overhead(quest_db_cache):
    db = quest_db_cache(config_for(N_TRANSACTIONS))
    plain = _best_of(lambda: apriori(db, 0.01))
    deadlined = _best_of(
        lambda: apriori(db, 0.01, monitor=RunMonitor(budget=NEVER_BINDS))
    )
    overhead = deadlined / plain - 1.0
    emit(
        "E14",
        f"apriori D={N_TRANSACTIONS}",
        f"no_budget={plain:.3f}s",
        f"deadline_1h={deadlined:.3f}s",
        f"overhead={overhead:+.1%}",
    )
    assert overhead < 0.25  # target < 5%; bound loose for timing noise


def test_e14_valid_periods_deadline_overhead(quest_db_cache):
    db = quest_db_cache(config_for(N_TRANSACTIONS))
    task = ValidPeriodTask(
        granularity=Granularity.MONTH,
        thresholds=RuleThresholds(0.02, 0.6),
        min_coverage=2,
        max_rule_size=3,
    )
    miner = TemporalMiner(db)
    miner.context(task.granularity)  # build the partitioning once
    plain = _best_of(lambda: miner.valid_periods(task))
    deadlined = _best_of(lambda: miner.valid_periods(task, budget=NEVER_BINDS))
    overhead = deadlined / plain - 1.0
    emit(
        "E14",
        f"task=VP D={N_TRANSACTIONS}",
        f"no_budget={plain:.3f}s",
        f"deadline_1h={deadlined:.3f}s",
        f"overhead={overhead:+.1%}",
    )
    assert overhead < 0.25


def test_e14_budget_stops_promptly(quest_db_cache):
    """A tight deadline stops far below the full run's cost."""
    db = quest_db_cache(config_for(N_TRANSACTIONS))
    task = ValidPeriodTask(
        granularity=Granularity.MONTH,
        thresholds=RuleThresholds(0.02, 0.6),
        min_coverage=2,
        max_rule_size=3,
    )
    miner = TemporalMiner(db)
    miner.context(task.granularity)
    full = _best_of(lambda: miner.valid_periods(task), rounds=1)
    deadline = max(full / 10.0, 0.005)
    started = time.perf_counter()
    report = miner.valid_periods(task, budget=RunBudget(max_seconds=deadline))
    elapsed = time.perf_counter() - started
    emit(
        "E14",
        f"deadline={deadline * 1000:.1f}ms",
        f"stopped_after={elapsed * 1000:.1f}ms",
        f"partial={report.partial}",
    )
    assert report.partial
    # Granule boundaries are fine-grained: the stop must land within a
    # small multiple of the deadline, not after another full pass.
    assert elapsed < full
