"""Query planning: stats, the wall-time estimate, and ``QueryPlan``.

The paper's IQMS is a *system* — users state TML queries and the system
decides how to execute them.  This package is that decision layer:

* :class:`StoreStats` summarizes a store (|D|, item cardinality,
  density, span), memoized per store fingerprint;
* :mod:`repro.planner.cost` estimates a statement's wall time from
  those stats plus the statement shape;
* :func:`plan_query` resolves it all — AUTO is the ``packed`` kernel,
  an explicit ``SET ENGINE`` pin overrides it — into a frozen
  :class:`QueryPlan` consumed by the miner, the service scheduler,
  ``EXPLAIN`` and the trace/metrics pipeline.

Plans affect *performance only*: every backend produces bit-identical
mining results (the differential suites enforce this), so the planner
can never change an answer, only its latency.
"""

from repro.planner.cost import (
    StatementShape,
    WorkloadEstimate,
    estimate_seconds,
    estimate_workload,
)
from repro.planner.plan import QueryPlan
from repro.planner.planner import plan_query, record_observed
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
    "DIRTY_FRACTION_THRESHOLD",
    "INCREMENTAL_MODES",
    "QueryPlan",
    "RefreshDecision",
    "StatementShape",
    "StoreStats",
    "WorkloadEstimate",
    "choose_refresh",
    "compute_stats",
    "estimate_seconds",
    "estimate_workload",
    "plan_query",
    "record_observed",
    "stats_of_encoded",
]
