"""Unit tests for the cost-based query planner.

Statistics, the wall-time estimate, plan rendering and ``plan_query``
— AUTO is the ``packed`` kernel, a pin overrides it — plus the
estimate-vs-actual counters ``record_observed`` accumulates.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta

import pytest

from repro.columnar.encoded import EncodedDatabase
from repro.core.transactions import TransactionDatabase
from repro.errors import MiningParameterError
from repro.obs.metrics import MetricsRegistry
from repro.planner import (
    StatementShape,
    StoreStats,
    compute_stats,
    estimate_seconds,
    estimate_workload,
    plan_query,
    record_observed,
    stats_of_encoded,
)
from repro.temporal.granularity import Granularity


def _db(n_transactions: int = 40, basket: int = 4, n_items: int = 12):
    db = TransactionDatabase()
    start = datetime(2026, 1, 1)
    for i in range(n_transactions):
        items = [f"item{(i + j) % n_items}" for j in range(basket)]
        db.add(start + timedelta(hours=i), items)
    return db


BIG_STATS = StoreStats(
    n_transactions=200_000,
    n_items=500,
    n_occurrences=2_000_000,
    first_timestamp=datetime(2026, 1, 1),
    last_timestamp=datetime(2026, 1, 30),
)

SHAPE = StatementShape(
    task="valid_periods", granularity=Granularity.DAY, min_support=0.05
)


class TestStats:
    def test_database_stats(self):
        stats = compute_stats(_db(40, basket=4, n_items=12))
        assert stats.n_transactions == 40
        assert stats.n_items == 12
        assert stats.n_occurrences == 160
        assert stats.avg_basket_size == pytest.approx(4.0)
        assert 0.0 < stats.density <= 1.0

    def test_encoded_stats_agree_and_memoize(self):
        db = _db()
        encoded = EncodedDatabase.from_database(db)
        from_encoded = stats_of_encoded(encoded)
        assert from_encoded == compute_stats(db)
        assert stats_of_encoded(encoded) is from_encoded  # memo hit

    def test_compute_stats_dispatch(self):
        db = _db()
        encoded = EncodedDatabase.from_database(db)
        direct = compute_stats(db)
        assert compute_stats(direct) is direct
        assert compute_stats(encoded) == direct
        assert compute_stats(db) is direct  # memoized on db's encoding

    def test_units_spanned(self):
        stats = compute_stats(_db(48))  # 48 hourly transactions = 2 days
        assert stats.units_spanned(Granularity.DAY) == 2
        assert stats.units_spanned(None) == 1

    def test_empty_stats(self):
        stats = compute_stats(TransactionDatabase())
        assert stats.n_transactions == 0
        assert stats.avg_basket_size == 0.0
        assert stats.units_spanned(Granularity.DAY) == 1


UNITLESS = StatementShape(task="constrained", granularity=None, min_support=0.05)


class TestCostModel:
    def test_estimates_deterministic(self):
        for shape in (SHAPE, UNITLESS):
            estimate = estimate_seconds(BIG_STATS, shape)
            assert estimate > 0
            assert estimate_seconds(BIG_STATS, shape) == estimate

    def test_more_data_costs_more(self):
        small = StoreStats(
            2_000, 500, 20_000, BIG_STATS.first_timestamp, BIG_STATS.last_timestamp
        )
        for shape in (SHAPE, UNITLESS):
            assert estimate_seconds(BIG_STATS, shape) > estimate_seconds(small, shape)

    def test_workload_estimate_shrinks_with_support(self):
        loose = estimate_workload(BIG_STATS, SHAPE)
        strict = estimate_workload(
            BIG_STATS,
            StatementShape(
                task=SHAPE.task, granularity=SHAPE.granularity, min_support=0.5
            ),
        )
        assert strict.est_candidates <= loose.est_candidates


class TestPlanQuery:
    def test_small_store_plans_serial(self):
        plan = plan_query(_db(), SHAPE, metrics=MetricsRegistry())
        assert not plan.backend_pinned
        # Every run is serial: a plan carries no fan-out decision at all.
        document = plan.to_dict()
        for knob in ("workers", "n_shards", "workers_pinned", "est_serial_seconds"):
            assert knob not in document

    @pytest.mark.parametrize("granularity", [Granularity.DAY, None])
    def test_empty_store_still_plans(self, granularity):
        empty = StoreStats(n_transactions=0, n_items=0, n_occurrences=0)
        shape = StatementShape(
            task="valid_periods", granularity=granularity, min_support=0.05
        )
        assert estimate_workload(empty, shape).pass_candidates >= 1
        plan = plan_query(empty, shape, metrics=MetricsRegistry())
        assert plan.est_seconds >= 0
        # ... and through the database front door, as EXPLAIN reaches it.
        assert plan_query(
            TransactionDatabase(), shape, metrics=MetricsRegistry()
        ).backend == plan.backend

    def test_auto_is_packed_with_its_estimate(self):
        for pin in (None, "auto"):
            plan = plan_query(BIG_STATS, SHAPE, pin_backend=pin, metrics=MetricsRegistry())
            assert plan.backend == "packed" and not plan.backend_pinned
            assert plan.est_seconds == estimate_seconds(BIG_STATS, SHAPE)
            assert plan.reasons == ()

    def test_pins_honoured(self):
        plan = plan_query(
            BIG_STATS,
            SHAPE,
            pin_backend="dict",
            metrics=MetricsRegistry(),
        )
        assert plan.backend == "dict" and plan.backend_pinned
        # The horizontal backends have no cost model.
        assert plan.est_seconds == 0.0
        assert plan.reasons == ("pinned backend has no cost model; estimates omitted",)

    def test_unknown_pin_rejected(self):
        with pytest.raises(MiningParameterError, match="unknown counting backend"):
            plan_query(_db(), SHAPE, pin_backend="btree", metrics=MetricsRegistry())

    def test_cache_policy_follows_shape(self):
        cacheable = StatementShape(
            task="valid_periods",
            granularity=Granularity.DAY,
            min_support=0.05,
            cacheable=True,
        )
        registry = MetricsRegistry()
        assert plan_query(_db(), cacheable, metrics=registry).cache_policy == "reuse"
        assert plan_query(_db(), SHAPE, metrics=registry).cache_policy == "bypass"

    def test_decision_counter_increments(self):
        registry = MetricsRegistry()
        plan = plan_query(_db(), SHAPE, metrics=registry)
        counter = registry.counter(
            "repro_planner_decisions_total",
            "Query plans emitted, by chosen backend.",
            labelnames=("backend",),
        )
        assert counter.value(backend=plan.backend) == 1


class TestPlanRendering:
    def test_describe_rows_cover_every_knob(self):
        plan = plan_query(BIG_STATS, SHAPE, metrics=MetricsRegistry())
        names = [name for name, _ in plan.describe_rows()]
        for expected in (
            "plan: backend",
            "plan: cache",
            "plan: est cost",
            "plan: est workload",
        ):
            assert expected in names
        assert not any(name == "plan: backend costs" for name in names)

    def test_pinned_marker_rendered(self):
        plan = plan_query(
            _db(),
            SHAPE,
            pin_backend="vertical",
            metrics=MetricsRegistry(),
        )
        rows = dict(plan.describe_rows())
        assert rows["plan: backend"] == "vertical (pinned)"

    def test_to_dict_json_round_trip(self):
        plan = plan_query(BIG_STATS, SHAPE, metrics=MetricsRegistry())
        document = plan.to_dict()
        assert json.loads(json.dumps(document)) == document
        assert "costs" not in document


def _observed(registry: MetricsRegistry) -> tuple:
    """(estimated, actual) seconds recorded for the packed kernel."""
    return tuple(
        registry.counter(
            f"repro_planner_{kind}_seconds_total",
            "",
            labelnames=("backend",),
        ).value(backend="packed")
        for kind in ("estimated", "actual")
    )


class TestObservedCounters:
    def test_record_observed_accumulates_both_counters(self):
        registry = MetricsRegistry()
        plan = plan_query(BIG_STATS, SHAPE, metrics=registry)
        record_observed(plan, 0.25, metrics=registry)
        record_observed(plan, 0.5, metrics=registry)
        estimated, actual = _observed(registry)
        assert estimated == pytest.approx(2 * plan.est_seconds)
        assert actual == pytest.approx(0.75)

    def test_instant_runs_ignored(self):
        registry = MetricsRegistry()
        plan = plan_query(BIG_STATS, SHAPE, metrics=registry)
        record_observed(plan, 0.0, metrics=registry)
        assert _observed(registry) == (0.0, 0.0)

    def test_observations_never_move_the_plan(self):
        registry = MetricsRegistry()
        baseline = plan_query(BIG_STATS, SHAPE, metrics=registry)
        # Report the kernel as persistently 100x slower than estimated:
        # the counters move, the plan and its estimate do not.
        for _ in range(3):
            record_observed(
                baseline, baseline.est_seconds * 100.0, metrics=registry
            )
        again = plan_query(BIG_STATS, SHAPE, metrics=registry)
        assert again.backend == baseline.backend == "packed"
        assert again.est_seconds == baseline.est_seconds


@pytest.fixture(scope="module")
def library_round():
    """The regression benchmark's library round: (database, task) pairs."""
    from repro.datagen import QuestConfig, generate_baskets, periodic_dataset
    from repro.mining import (
        ConstrainedTask,
        PeriodicityTask,
        RuleThresholds,
        ValidPeriodTask,
    )
    from repro.temporal import CyclicPeriodicity

    start = datetime(2025, 1, 1)
    quest = TransactionDatabase()
    baskets = generate_baskets(
        QuestConfig(
            n_transactions=5000,
            avg_transaction_size=8,
            avg_pattern_size=4,
            n_items=500,
            n_patterns=100,
            seed=11,
        )
    )
    for index, basket in enumerate(baskets):
        quest.add(
            start + timedelta(seconds=index * 91 * 86400 / len(baskets)),
            [f"i{item}" for item in basket or (index,)],
        )
    periodic = periodic_dataset(
        n_transactions=10000, start=start, n_days=91, quest_seed=12, seed=13
    ).database
    day, week = Granularity.DAY, Granularity.WEEK
    return [
        (quest, ValidPeriodTask(day, RuleThresholds(0.08, 0.6), max_rule_size=3)),
        (periodic, ValidPeriodTask(day, RuleThresholds(0.10, 0.6), max_rule_size=3)),
        (periodic, ValidPeriodTask(week, RuleThresholds(0.10, 0.6), max_rule_size=3)),
        (
            periodic,
            PeriodicityTask(
                day, RuleThresholds(0.10, 0.6), max_period=8, min_match=0.8, max_rule_size=3
            ),
        ),
        (
            periodic,
            ConstrainedTask(
                CyclicPeriodicity(7, 5, day),
                RuleThresholds(0.10, 0.6),
                granularity=day,
                max_rule_size=3,
            ),
        ),
    ]


def _mine(miner, task):
    """Run ``task`` through the miner method the benchmark calls for it."""
    from repro.mining import ConstrainedTask, PeriodicityTask

    if isinstance(task, PeriodicityTask):
        return miner.periodicities(task)
    if isinstance(task, ConstrainedTask):
        return miner.with_feature(task)
    return miner.valid_periods(task)


class TestBenchShapes:
    """The regression benchmark's library round, as the planner sees it.

    AUTO runs the packed kernel for every statement, with an estimate.
    """

    def test_library_round_plans_serial_packed_on_two_cpus(self, library_round):
        from repro.mining import TemporalMiner

        for database, task in library_round:
            plan = TemporalMiner(database, metrics=MetricsRegistry()).plan_for(task)
            assert plan.backend == "packed"
            assert plan.est_seconds > 0

    def test_twenty_library_mines_in_one_registry_all_run_packed(self, library_round):
        """Earlier runs' timings never move a later run off ``packed``.

        Shaped like the benchmark's library statement: a fresh miner per
        statement, every one recording into the same registry.
        """
        from repro.mining import TemporalMiner

        registry = MetricsRegistry()
        for number in range(20):
            database, task = library_round[number % len(library_round)]
            report = _mine(TemporalMiner(database, metrics=registry), task)
            assert report.plan["backend"] == "packed", number
            assert not report.plan["backend_pinned"]

    def test_bitmap_backends_share_one_per_unit_cost(self):
        registry = MetricsRegistry()
        for shape in (SHAPE, UNITLESS):
            vertical, packed = (
                plan_query(BIG_STATS, shape, pin_backend=pin, metrics=registry)
                for pin in ("vertical", "packed")
            )
            assert vertical.est_seconds == packed.est_seconds > 0
            assert vertical.reasons == packed.reasons == ()
