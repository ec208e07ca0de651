"""Cost-based query planning: stats, cost model, and ``QueryPlan``.

The paper's IQMS is a *system* — users state TML queries and the system
decides how to execute them.  This package is that decision layer:

* :class:`StoreStats` summarizes a store (|D|, item cardinality,
  density, span), memoized per store fingerprint;
* :mod:`repro.planner.cost` scores every counting backend from those
  stats plus the statement shape;
* :func:`plan_query` resolves it all — honouring an explicit ``SET
  ENGINE`` pin, the ``REPRO_PLAN`` environment pin, and calibration
  learned from the metrics history — into a frozen :class:`QueryPlan`
  consumed by the miner, the service scheduler, ``EXPLAIN`` and the
  trace/metrics pipeline.

Plans affect *performance only*: every backend produces bit-identical
mining results (the differential suites enforce this), so the planner
can never change an answer, only its latency.
"""

from repro.planner.cost import (
    COSTED_BACKENDS,
    BackendCost,
    StatementShape,
    WorkloadEstimate,
    backend_costs,
    estimate_workload,
)
from repro.planner.plan import QueryPlan
from repro.planner.planner import (
    PLAN_ENV,
    calibration_factors,
    plan_query,
    record_observed,
)
from repro.planner.refresh import (
    DIRTY_FRACTION_THRESHOLD,
    INCREMENTAL_MODES,
    RefreshDecision,
    choose_refresh,
)
from repro.planner.stats import (
    StoreStats,
    compute_stats,
    stats_of_encoded,
)

__all__ = [
    "COSTED_BACKENDS",
    "DIRTY_FRACTION_THRESHOLD",
    "INCREMENTAL_MODES",
    "PLAN_ENV",
    "BackendCost",
    "QueryPlan",
    "RefreshDecision",
    "StatementShape",
    "StoreStats",
    "WorkloadEstimate",
    "backend_costs",
    "calibration_factors",
    "choose_refresh",
    "compute_stats",
    "estimate_workload",
    "plan_query",
    "record_observed",
    "stats_of_encoded",
]
