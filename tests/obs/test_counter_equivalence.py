"""Mining counters must not depend on the execution strategy.

The same task over the same data must flush identical
``repro_mining_*`` counter totals whether counting runs serially or on
a sharded process pool, and whichever counting backend does the work —
the counters describe the *algorithm* (passes, candidates, granules,
rules), not the machinery.  The dispatch counter
(``repro_counting_dispatch_total``) is out of scope here: it counts
passes by backend on the parent's default registry
(``tests/mining/test_context.py`` pins one dispatch per pass).
"""

import pytest


from repro.mining.engine import TemporalMiner
from repro.mining.tasks import RuleThresholds, ValidPeriodTask
from repro.obs.metrics import MetricsRegistry
from repro.runtime.budget import RunMonitor
from repro.temporal.granularity import Granularity

BACKENDS = ("dict", "hashtree", "vertical", "packed")


def _mining_counters(seasonal_data, backend, workers):
    registry = MetricsRegistry()
    task = ValidPeriodTask(
        granularity=Granularity.MONTH,
        thresholds=RuleThresholds(min_support=0.2, min_confidence=0.6),
    )
    with TemporalMiner(
        seasonal_data.database, counting=backend, workers=workers, metrics=registry
    ) as miner:
        report = miner.valid_periods(task, monitor=RunMonitor(metrics=registry))
    counters = {
        name: value
        for name, value in registry.snapshot().items()
        if name.startswith("repro_mining_")
    }
    return report, counters


@pytest.mark.parametrize("backend", BACKENDS)
def test_counters_equal_serial_vs_sharded(seasonal_data, backend):
    serial_report, serial = _mining_counters(seasonal_data, backend, workers=1)
    sharded_report, sharded = _mining_counters(seasonal_data, backend, workers=4)
    assert serial, "expected mining counters to be flushed"
    assert serial == sharded
    assert len(serial_report.results) == len(sharded_report.results)


def test_counters_equal_across_backends(seasonal_data):
    baseline = None
    for backend in BACKENDS:
        _, counters = _mining_counters(seasonal_data, backend, workers=1)
        if baseline is None:
            baseline = counters
        else:
            assert counters == baseline, f"backend {backend} diverged"


def test_counters_are_nonzero(seasonal_data):
    _, counters = _mining_counters(seasonal_data, "dict", workers=1)
    assert counters.get("repro_mining_passes_total", 0) > 0
    assert counters.get("repro_mining_candidates_total", 0) > 0
    assert counters.get("repro_mining_granules_total", 0) > 0
    assert counters.get("repro_mining_rules_total", 0) > 0
