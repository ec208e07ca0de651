"""``plan_query`` — turn stats + statement shape + a pin into a plan.

AUTO is the ``packed`` kernel (:data:`~repro.columnar.backends.AUTO_BACKEND`)
here as at every other entry point, so there is no backend to choose:

1. an explicit ``SET ENGINE x`` / ``TemporalMiner(counting="x")`` pin
   forces the backend and the plan marks it ``(pinned)``;
2. otherwise the plan runs ``packed``;
3. a bitmap backend (``packed`` or ``vertical``, one kernel) gets the
   cost model's wall-time estimate; a pinned horizontal backend has no
   cost model, so its estimate is omitted.

Every run is serial, so a plan depends only on the store's stats, the
statement shape and the pin — never on the host or on earlier runs.
Every decision increments ``repro_planner_decisions_total`` so the
backends run are visible at ``/v1/metrics``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.columnar.backends import AUTO_BACKEND, get_backend, validate_backend_name
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.planner.cost import StatementShape, estimate_seconds, estimate_workload
from repro.planner.plan import QueryPlan
from repro.planner.stats import compute_stats


def record_observed(
    plan: QueryPlan,
    actual_seconds: float,
    metrics: Optional[MetricsRegistry] = None,
) -> None:
    """Count one finished run's estimated and observed seconds.

    Both are accumulated per backend, so the estimate can be checked
    against the wall clock at ``/v1/metrics``; neither feeds back into
    planning.  Skipped for instant runs, which are all dispatch noise,
    and for plans without an estimate (a ``dict`` / ``hashtree`` pin).
    """
    if actual_seconds <= 0 or plan.est_seconds <= 0:
        return
    registry = metrics if metrics is not None else default_registry()
    labels = {"backend": plan.backend}
    registry.counter(
        "repro_planner_actual_seconds_total",
        "Observed wall seconds of planned runs, by chosen backend.",
        labelnames=("backend",),
    ).inc(actual_seconds, **labels)
    registry.counter(
        "repro_planner_estimated_seconds_total",
        "Cost-model estimates of planned runs, by chosen backend.",
        labelnames=("backend",),
    ).inc(plan.est_seconds, **labels)


def plan_query(
    source,
    shape: StatementShape,
    pin_backend: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> QueryPlan:
    """Plan one statement against one store.

    ``source`` is anything :func:`repro.planner.stats.compute_stats`
    accepts.  ``pin_backend`` comes from an explicit ``SET ENGINE`` or
    miner argument; ``None`` (or ``"auto"``) means AUTO.
    """
    registry = metrics if metrics is not None else default_registry()
    stats = compute_stats(source)
    pin = validate_backend_name("auto" if pin_backend is None else pin_backend)
    pinned = pin != "auto"
    backend = pin if pinned else AUTO_BACKEND
    reasons: Tuple[str, ...] = ()
    if get_backend(backend).uses_vertical:
        est_seconds = estimate_seconds(stats, shape)
    else:
        est_seconds = 0.0
        reasons = ("pinned backend has no cost model; estimates omitted",)
    plan = QueryPlan(
        backend=backend,
        cache_policy="reuse" if shape.cacheable else "bypass",
        backend_pinned=pinned,
        est_seconds=est_seconds,
        workload=estimate_workload(stats, shape),
        stats=stats,
        shape=shape,
        reasons=reasons,
    )
    registry.counter(
        "repro_planner_decisions_total",
        "Query plans emitted, by chosen backend.",
        labelnames=("backend",),
    ).inc(backend=plan.backend)
    return plan
