"""Mining counters must not depend on the counting backend.

The same task over the same data must flush identical
``repro_mining_*`` counter totals whichever counting backend does the
work — the counters describe the *algorithm* (passes, candidates,
granules, rules), not the machinery.  The dispatch counter
(``repro_counting_dispatch_total``) is out of scope here: it counts
passes by backend on the parent's default registry
(``tests/mining/test_context.py`` pins one dispatch per pass).
"""

from repro.mining.engine import TemporalMiner
from repro.mining.tasks import RuleThresholds, ValidPeriodTask
from repro.obs.metrics import MetricsRegistry
from repro.runtime.budget import RunMonitor
from repro.temporal.granularity import Granularity

BACKENDS = ("dict", "hashtree", "vertical", "packed")


def _mining_counters(seasonal_data, backend):
    registry = MetricsRegistry()
    task = ValidPeriodTask(
        granularity=Granularity.MONTH,
        thresholds=RuleThresholds(min_support=0.2, min_confidence=0.6),
    )
    miner = TemporalMiner(seasonal_data.database, counting=backend, metrics=registry)
    miner.valid_periods(task, monitor=RunMonitor(metrics=registry))
    return {
        name: value
        for name, value in registry.snapshot().items()
        if name.startswith("repro_mining_")
    }


def test_counters_equal_across_backends(seasonal_data):
    baseline = None
    for backend in BACKENDS:
        counters = _mining_counters(seasonal_data, backend)
        if baseline is None:
            baseline = counters
        else:
            assert counters == baseline, f"backend {backend} diverged"


def test_counters_are_nonzero(seasonal_data):
    counters = _mining_counters(seasonal_data, "dict")
    assert counters.get("repro_mining_passes_total", 0) > 0
    assert counters.get("repro_mining_candidates_total", 0) > 0
    assert counters.get("repro_mining_granules_total", 0) > 0
    assert counters.get("repro_mining_rules_total", 0) > 0
