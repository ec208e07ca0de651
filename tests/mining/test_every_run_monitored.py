"""Every mining run is accounted by a run monitor, passed in or not.

An entry point called without a monitor builds a plain ``RunMonitor()``;
its report must carry the same diagnostics as a run handed an explicit
one, at every layer: the task drivers and the ``TemporalMiner`` facade.
"""

from __future__ import annotations

from datetime import datetime

import pytest

from repro.mining.constrained import mine_with_feature
from repro.mining.engine import TemporalMiner
from repro.mining.periodicities import discover_cyclic_interleaved, discover_periodicities
from repro.mining.tasks import (
    ConstrainedTask,
    PeriodicityTask,
    RuleThresholds,
    ValidPeriodTask,
)
from repro.mining.valid_periods import discover_valid_periods
from repro.runtime.budget import RunMonitor
from repro.temporal import Granularity, TimeInterval

THRESHOLDS = RuleThresholds(min_support=0.15, min_confidence=0.5)
VALID = ValidPeriodTask(granularity=Granularity.DAY, thresholds=THRESHOLDS)
PERIODIC = PeriodicityTask(
    granularity=Granularity.DAY, thresholds=THRESHOLDS, max_period=4, min_repetitions=2
)
CONSTRAINED = ConstrainedTask(
    feature=TimeInterval(datetime(2026, 1, 2), datetime(2026, 1, 9)),
    thresholds=THRESHOLDS,
)
COUNTED = ("passes_completed", "granules_covered", "candidates_generated", "rules_emitted")

DRIVERS = {
    "discover_valid_periods": lambda db, **kw: discover_valid_periods(db, VALID, **kw),
    "discover_periodicities": lambda db, **kw: discover_periodicities(db, PERIODIC, **kw),
    "discover_cyclic_interleaved": lambda db, **kw: discover_cyclic_interleaved(
        db, PERIODIC, **kw
    ),
    "mine_with_feature": lambda db, **kw: mine_with_feature(db, CONSTRAINED, **kw),
    "TemporalMiner.valid_periods": lambda db, **kw: TemporalMiner(db).valid_periods(
        VALID, **kw
    ),
    "TemporalMiner.periodicities": lambda db, **kw: TemporalMiner(db).periodicities(
        PERIODIC, **kw
    ),
    "TemporalMiner.periodicities(interleaved)": lambda db, **kw: TemporalMiner(
        db
    ).periodicities(PERIODIC, interleaved=True, **kw),
    "TemporalMiner.with_feature": lambda db, **kw: TemporalMiner(db).with_feature(
        CONSTRAINED, **kw
    ),
}


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_unmonitored_call_reports_what_an_explicit_monitor_does(random_db, name):
    mine = DRIVERS[name]
    bare = mine(random_db)
    explicit = mine(random_db, monitor=RunMonitor())
    assert bare.diagnostics is not None
    assert explicit.diagnostics is not None
    assert not bare.partial and bare.diagnostics.completed
    assert bare.results == explicit.results
    for field in COUNTED:
        assert getattr(bare.diagnostics, field) == getattr(explicit.diagnostics, field), field
    assert bare.diagnostics.passes_completed > 0
    assert bare.diagnostics.rules_emitted == len(bare.results)
