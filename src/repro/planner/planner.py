"""``plan_query`` — turn stats + statement shape + pins into a plan.

The decision procedure, in order:

1. Score every registered-and-modelled backend with the cost model,
   applying per-backend calibration factors learned from observed run
   times (see :func:`calibration_factors`).
2. Honour pins: an explicit ``SET ENGINE x`` / ``TemporalMiner(counting=
   "x")`` forces the backend and the plan marks it ``(pinned)``; the
   ``REPRO_PLAN`` environment variable pins the backend process-wide
   (CI uses this to prove plan-independence of results).
3. Otherwise pick the cheapest calibrated backend.

Every run is serial, so a plan depends only on the store's stats, the
statement shape, the pins and the calibration — never on the host.
Every decision increments ``repro_planner_decisions_total`` so the
chosen backends are visible at ``/v1/metrics``.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, Optional

from repro.columnar.backends import validate_backend_name
from repro.errors import MiningParameterError
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.planner.cost import (
    COSTED_BACKENDS,
    StatementShape,
    backend_costs,
    estimate_workload,
)
from repro.planner.plan import QueryPlan
from repro.planner.stats import compute_stats

#: Environment variable pinning the planner's backend choice ("auto" = off).
PLAN_ENV = "REPRO_PLAN"

#: Calibration factors are clamped to this band — a wildly skewed factor
#: means the observations and the model disagree on workload, not speed.
_CALIBRATION_BAND = (0.2, 5.0)


def _env_backend_pin() -> Optional[str]:
    """Backend pinned via ``REPRO_PLAN``, or ``None`` for auto."""
    raw = os.environ.get(PLAN_ENV)
    name = (raw or "").strip().lower() or "auto"
    try:
        validate_backend_name(name)
    except MiningParameterError as error:
        warnings.warn(
            f"ignoring malformed {PLAN_ENV}={raw!r} ({error})",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    return None if name == "auto" else name


def record_observed(
    plan: QueryPlan,
    actual_seconds: float,
    metrics: Optional[MetricsRegistry] = None,
) -> None:
    """Feed one finished run back into the calibration counters.

    Both the model's estimate and the wall clock are accumulated per
    backend; :func:`calibration_factors` later uses their ratio to
    correct persistent model bias.  Skipped for instant runs, which are
    all dispatch noise.
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


def calibration_factors(
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, float]:
    """Per-backend observed/estimated ratios from the metrics history.

    A factor above 1 means the model has been optimistic for that
    backend on this workload mix; estimates are multiplied by it before
    backends are compared.  Empty (no correction) until at least one
    planned run has completed, so fresh processes plan deterministically
    from the model alone.
    """
    registry = metrics if metrics is not None else default_registry()
    actual = registry.counter(
        "repro_planner_actual_seconds_total",
        "Observed wall seconds of planned runs, by chosen backend.",
        labelnames=("backend",),
    )
    estimated = registry.counter(
        "repro_planner_estimated_seconds_total",
        "Cost-model estimates of planned runs, by chosen backend.",
        labelnames=("backend",),
    )
    factors: Dict[str, float] = {}
    lo, hi = _CALIBRATION_BAND
    for backend in COSTED_BACKENDS:
        est = estimated.value(backend=backend)
        act = actual.value(backend=backend)
        if est > 0 and act > 0:
            factors[backend] = min(max(act / est, lo), hi)
    return factors


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
    reasons = []

    if pin_backend is not None and validate_backend_name(pin_backend) == "auto":
        pin_backend = None
    if pin_backend is None:
        env_pin = _env_backend_pin()
        if env_pin is not None:
            pin_backend = env_pin
            reasons.append(f"backend pinned by {PLAN_ENV}={env_pin}")

    costs = backend_costs(stats, shape, calibration_factors(registry))
    by_name = {cost.backend: cost for cost in costs}
    if pin_backend is not None and pin_backend in by_name:
        backend = pin_backend
    elif pin_backend is not None:
        backend = pin_backend  # registered but unmodelled: trust the pin
        reasons.append("pinned backend has no cost model; estimates omitted")
    else:
        backend = min(costs, key=lambda c: (c.calibrated_seconds, c.backend)).backend

    chosen = by_name.get(backend)
    plan = QueryPlan(
        backend=backend,
        cache_policy="reuse" if shape.cacheable else "bypass",
        backend_pinned=pin_backend is not None,
        est_seconds=chosen.calibrated_seconds if chosen else 0.0,
        costs=costs,
        workload=estimate_workload(stats, shape),
        stats=stats,
        shape=shape,
        reasons=tuple(reasons),
    )
    registry.counter(
        "repro_planner_decisions_total",
        "Query plans emitted, by chosen backend.",
        labelnames=("backend",),
    ).inc(backend=plan.backend)
    return plan
