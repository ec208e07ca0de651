"""The counting-backend registry and its four built-in strategies."""

from datetime import datetime, timedelta

import pytest

from repro.columnar.backends import (
    BasketSegment,
    CountingBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
    validate_backend_name,
)
from repro.columnar.encoded import EncodedDatabase
from repro.core import TransactionDatabase
from repro.core.items import Itemset
from repro.errors import MiningParameterError
from repro.mining import (
    ConstrainedTask,
    PeriodicityTask,
    RuleThresholds,
    TemporalMiner,
    ValidPeriodTask,
)
from repro.obs.metrics import MetricsRegistry
from repro.runtime.budget import CancellationToken, RunInterrupted, RunMonitor
from repro.temporal import Granularity, TimeInterval

from tests.golden.test_golden_mining import canonical_basket_db, canonical_quest_db

BASKETS = [
    (0, 1, 2),
    (0, 1),
    (0, 2),
    (3,),
    (0, 1, 2, 3),
]
CANDIDATES = [Itemset([0, 1]), Itemset([0, 2]), Itemset([1, 2]), Itemset([2, 3])]
EXPECTED = {
    Itemset([0, 1]): 3,
    Itemset([0, 2]): 3,
    Itemset([1, 2]): 2,
    Itemset([2, 3]): 1,
}


def test_registry_lists_builtin_backends():
    assert available_backends() == ["dict", "hashtree", "packed", "vertical"]


def test_get_backend_unknown_name():
    with pytest.raises(MiningParameterError, match="unknown counting backend"):
        get_backend("btree")


def test_register_requires_name():
    class Anonymous(CountingBackend):
        def count_pass(self, candidates, segment, monitor=None):
            return {}

    with pytest.raises(MiningParameterError):
        register_backend(Anonymous())


@pytest.mark.parametrize("name", ["dict", "hashtree", "vertical", "packed"])
def test_count_pass_on_basket_segment(name):
    backend = get_backend(name)
    counted = backend.count_pass(CANDIDATES, BasketSegment(BASKETS))
    assert counted == EXPECTED


@pytest.mark.parametrize("name", ["dict", "hashtree", "vertical", "packed"])
def test_count_pass_on_encoded_segment(name):
    db = TransactionDatabase()
    base = datetime(2026, 1, 1)
    for index, basket in enumerate(BASKETS):
        db.add(base + timedelta(hours=index), basket)
    segment = EncodedDatabase.from_database(db).segment()
    counted = get_backend(name).count_pass(CANDIDATES, segment)
    assert counted == EXPECTED


@pytest.mark.parametrize("name", ["dict", "hashtree", "vertical", "packed"])
def test_count_pass_empty_segment(name):
    counted = get_backend(name).count_pass(CANDIDATES, BasketSegment([]))
    assert counted == {candidate: 0 for candidate in CANDIDATES}


def test_resolve_backend_auto_is_packed_for_any_pass():
    assert resolve_backend("auto") is get_backend("packed")


@pytest.mark.parametrize("build", [canonical_basket_db, canonical_quest_db])
def test_resolve_backend_auto_is_what_the_planner_picks(build):
    database = build()
    start, _ = database.time_span()
    thresholds = RuleThresholds(min_support=0.3, min_confidence=0.6)
    tasks = [
        ValidPeriodTask(granularity=Granularity.DAY, thresholds=thresholds),
        PeriodicityTask(granularity=Granularity.DAY, thresholds=thresholds),
        ConstrainedTask(
            feature=TimeInterval(start, start + timedelta(days=7)),
            thresholds=thresholds,
        ),
    ]
    # One miner and one registry: every run's timings are recorded, and
    # none of them moves a later plan.
    miner = TemporalMiner(database, metrics=MetricsRegistry())
    runs = {
        ValidPeriodTask: miner.valid_periods,
        PeriodicityTask: miner.periodicities,
        ConstrainedTask: miner.with_feature,
    }
    for _ in range(2):
        for task in tasks:
            assert miner.plan_for(task).backend == resolve_backend("auto").name
            assert runs[type(task)](task).plan["backend"] == "packed"


def test_validate_backend_name_lists_auto_and_every_backend():
    assert validate_backend_name("auto") == "auto"
    assert validate_backend_name("hashtree") == "hashtree"
    with pytest.raises(MiningParameterError, match="available: auto, dict"):
        validate_backend_name("btree")


def test_resolve_backend_explicit_name_wins():
    assert resolve_backend("vertical").name == "vertical"
    assert resolve_backend("vertical").uses_vertical


def test_horizontal_backend_checkpoints_with_monitor():
    token = CancellationToken()
    token.cancel()
    monitor = RunMonitor(token=token)
    with pytest.raises(RunInterrupted):
        get_backend("dict").count_pass(
            CANDIDATES, BasketSegment(BASKETS), monitor=monitor
        )


def test_basket_segment_vertical_is_cached():
    segment = BasketSegment(BASKETS)
    assert segment.vertical() is segment.vertical()
    assert len(segment) == len(BASKETS)
