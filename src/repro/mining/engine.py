"""The :class:`TemporalMiner` facade — one object, three mining tasks.

This is the programmatic kernel that both the TML executor and the IQMS
system drive.  It caches the temporal partitioning per granularity so an
interactive session that refines thresholds (the IQMI iterative loop)
does not re-bucket the data every time.

Every task method accepts the resilience knobs from
:mod:`repro.runtime`: a :class:`~repro.runtime.budget.RunBudget`, a
:class:`~repro.runtime.budget.CancellationToken`, or a pre-built
:class:`~repro.runtime.budget.RunMonitor` (which wins when given — the
fault-injection harness uses it to attach granule hooks).
"""

from __future__ import annotations

import dataclasses
import json
import os
import warnings
from datetime import datetime
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.columnar.backends import validate_backend_name
from repro.columnar.encoded import EncodedDatabase
from repro.core.apriori import AnyDatabase, AprioriOptions
from repro.core.items import Itemset
from repro.core.transactions import Transaction, basket_ids, check_basket
from repro.errors import MiningParameterError, TransactionError
from repro.incremental import IncrementalContext, append_encoded
from repro.mining.constrained import mine_with_feature
from repro.mining.context import TemporalContext
from repro.mining.periodicities import discover_cyclic_interleaved, discover_periodicities
from repro.mining.results import MiningReport
from repro.mining.tasks import ConstrainedTask, PeriodicityTask, ValidPeriodTask
from repro.mining.valid_periods import discover_valid_periods
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.planner import (
    INCREMENTAL_MODES,
    QueryPlan,
    RefreshDecision,
    StatementShape,
    StoreStats,
    choose_refresh,
    plan_query,
    record_observed,
    stats_of_encoded,
)
from repro.runtime.budget import CancellationToken, RunBudget, RunMonitor
from repro.temporal.granularity import Granularity

logger = get_logger(__name__)

#: ``trace=`` accepts a switch or a JSONL sink path.
TraceSetting = Union[bool, str, "os.PathLike[str]"]


def _shape_of(
    task: Union[ValidPeriodTask, PeriodicityTask, ConstrainedTask],
    interleaved: bool = False,
    cacheable: bool = False,
) -> StatementShape:
    """The planner's view of one task object."""
    if isinstance(task, ConstrainedTask):
        # Task 3 mines one Apriori over the feature-restricted segment;
        # there is no per-unit loop, so the shape is unitless.
        return StatementShape(
            task="constrained",
            granularity=None,
            min_support=task.thresholds.min_support,
            cacheable=cacheable,
            passes=task.max_rule_size if task.max_rule_size else 3,
        )
    name = "valid_periods" if isinstance(task, ValidPeriodTask) else "periodicities"
    return StatementShape(
        task=name,
        granularity=task.granularity,
        min_support=task.thresholds.min_support,
        interleaved=interleaved,
        cacheable=cacheable,
        passes=task.max_rule_size if task.max_rule_size else 3,
    )


def _checked_row(entry: Sequence) -> Tuple[datetime, List[Union[str, int]], Optional[int]]:
    """One appended ``(timestamp, items[, tid])`` row, validated but unapplied."""
    timestamp, items = entry[0], entry[1]
    tid = entry[2] if len(entry) > 2 else None
    if not isinstance(timestamp, datetime):
        raise TransactionError(
            f"append timestamps must be datetimes, got {timestamp!r}"
        )
    basket = check_basket(items)
    if not basket:
        raise TransactionError(f"cannot append an empty transaction (tid={tid})")
    return timestamp, basket, tid


def _incremental_from_env() -> str:
    """The ``REPRO_INCREMENTAL`` default mode (``"off"`` when unset).

    CI flips the whole suite to ``auto`` without touching a test,
    bit-identical semantics mean every assertion must still hold, and a
    malformed value degrades loudly to ``"off"`` rather than silently
    changing behaviour.
    """
    raw = os.environ.get("REPRO_INCREMENTAL")
    if raw is None or not raw.strip():
        return "off"
    text = raw.strip().lower()
    if text in INCREMENTAL_MODES:
        return text
    logger.warning(
        "ignoring malformed REPRO_INCREMENTAL value %r (expected ON, OFF or "
        "AUTO); incremental maintenance stays off",
        raw,
    )
    warnings.warn(
        f"ignoring malformed REPRO_INCREMENTAL value {raw!r} (expected ON, "
        "OFF or AUTO); incremental maintenance stays off",
        RuntimeWarning,
        stacklevel=2,
    )
    return "off"


class TemporalMiner:
    """High-level entry point for temporal association rule discovery.

    >>> miner = TemporalMiner(database)                    # doctest: +SKIP
    >>> report = miner.valid_periods(ValidPeriodTask(...)) # doctest: +SKIP
    """

    def __init__(
        self,
        database: AnyDatabase,
        counting: str = "auto",
        metrics: Optional[MetricsRegistry] = None,
        trace: TraceSetting = False,
        incremental: Optional[str] = None,
    ):
        #: The one form every task scans and :meth:`apply_append` folds.
        self.database: EncodedDatabase = (
            database if isinstance(database, EncodedDatabase) else database.encoded()
        )
        #: A library caller's database, which appends keep in step.
        self._source = None if isinstance(database, EncodedDatabase) else database
        self.counting = validate_backend_name(counting)
        self.metrics = metrics
        self.trace = trace
        self._contexts: Dict[Granularity, TemporalContext] = {}
        self.incremental = "off"
        self.set_incremental(
            incremental if incremental is not None else _incremental_from_env()
        )

    def set_trace(self, trace: TraceSetting) -> None:
        """Toggle per-run tracing for subsequent runs.

        ``True`` attaches a serialized span tree to every report's
        ``trace`` field; a path value additionally appends one JSON line
        per run to that file.  ``False`` (the default) keeps the hot
        loops span-free.
        """
        self.trace = trace

    def set_counting(self, counting: str) -> None:
        """Select the counting backend for subsequent runs.

        Accepts ``"auto"`` or any registered backend name; raises
        :class:`~repro.errors.MiningParameterError` otherwise.  Cached
        contexts survive — the partitioning is backend-independent.
        """
        self.counting = validate_backend_name(counting)

    def set_incremental(self, mode: str) -> None:
        """Select the incremental-maintenance mode for subsequent runs.

        ``"off"`` (the default) keeps no per-unit state between runs;
        ``"on"`` always takes the delta path once state exists; ``"auto"``
        lets the planner fall back to a full recount above the dirty
        fraction threshold.  Results are bit-identical under every mode
        (the differential suite in ``tests/incremental`` enforces it) —
        only latency changes.  Switching modes drops cached contexts.
        """
        normalized = str(mode).strip().lower()
        if normalized not in INCREMENTAL_MODES:
            known = ", ".join(INCREMENTAL_MODES)
            raise MiningParameterError(
                f"unknown incremental mode {mode!r}; expected one of: {known}"
            )
        if normalized != self.incremental:
            self.incremental = normalized
            self._contexts.clear()

    def context(self, granularity: Granularity) -> TemporalContext:
        """The (cached) temporal partitioning at ``granularity``."""
        context = self._contexts.get(granularity)
        if context is None:
            if self.incremental != "off":
                context = IncrementalContext(
                    self.database, granularity, metrics=self.metrics
                )
            else:
                context = TemporalContext(self.database, granularity)
            self._contexts[granularity] = context
        return context

    def invalidate(self) -> None:
        """Drop the cached partitionings; the encoding itself stays."""
        self._contexts.clear()

    def apply_append(self, transactions: Iterable[Sequence]) -> int:
        """Fold appended transactions into the miner's encoding.

        ``transactions`` holds ``(timestamp, items)`` or ``(timestamp,
        items, tid)`` tuples (items are labels or ids; ``tid=None``
        auto-assigns).  A bad row anywhere raises
        :class:`~repro.errors.TransactionError` before any state moves.
        Every incremental mode then takes the same steps: map labels to
        ids, assign tids, fold with
        :func:`~repro.incremental.append_encoded`, rebase each cached
        :class:`IncrementalContext` (touched units dirty, per-unit counts
        kept) and drop each plain :class:`TemporalContext`.

        A :class:`TransactionDatabase` given at construction gains the
        rows too, so a miner built from it later sees them; a miner over
        an encoding (the serving path) builds no objects.  Returns the
        number of transactions applied.
        """
        rows = [_checked_row(entry) for entry in transactions]
        if not rows:
            return 0
        encoded = self.database
        next_tid = int(encoded.tids.max()) + 1 if len(encoded) else 0
        triples = []
        for timestamp, items, tid in rows:
            if tid is None:
                tid = next_tid
            next_tid = max(next_tid, tid + 1)
            triples.append((tid, timestamp, basket_ids(items, encoded.catalog)))
        result = append_encoded(encoded, triples)
        self.database = result.encoded
        if self._source is not None:
            self._source.extend(
                Transaction(tid, timestamp, Itemset(ids)) for tid, timestamp, ids in triples
            )
        for granularity, context in list(self._contexts.items()):
            if isinstance(context, IncrementalContext):
                self._contexts[granularity] = context.rebased(
                    result.encoded, result.touched_units(granularity)
                )
            else:
                del self._contexts[granularity]
        return len(rows)

    def refresh_for(self, granularity: Granularity) -> Optional[RefreshDecision]:
        """The refresh decision the next run at ``granularity`` would take.

        ``None`` while incremental maintenance is off (there is no
        decision to make).  Side-effect free — ``EXPLAIN`` calls this.
        """
        if self.incremental == "off":
            return None
        context = self.context(granularity)
        if not isinstance(context, IncrementalContext):
            return None
        return choose_refresh(
            self.incremental,
            context.dirty_unit_count(),
            context.n_units,
            context.has_state(),
        )

    def _refresh_for_run(self, granularity: Granularity) -> Optional[RefreshDecision]:
        """Resolve and *apply* the refresh decision for one run.

        A ``full`` decision over cached state resets the context cache so
        the run counts cold (and records the fallback metric); a
        ``delta`` decision leaves the cache in place for the counting
        overrides to splice against.
        """
        if self.incremental == "off":
            return None
        context = self.context(granularity)
        if not isinstance(context, IncrementalContext):
            return None
        decision = choose_refresh(
            self.incremental,
            context.dirty_unit_count(),
            context.n_units,
            context.has_state(),
            metrics=self.metrics,
        )
        if decision.strategy == "full" and context.has_state():
            context.reset_cache()
        return decision

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def stats(self) -> StoreStats:
        """Planner statistics of the miner's encoding (memoized on it)."""
        return stats_of_encoded(self.database)

    def plan_for(
        self,
        task: Union[ValidPeriodTask, PeriodicityTask, ConstrainedTask],
        interleaved: bool = False,
        cacheable: bool = False,
    ) -> QueryPlan:
        """Resolve the execution plan one task would run under *now*.

        An explicit ``counting=``/``set_counting`` setting becomes a pin;
        left on AUTO, the plan runs the ``packed`` kernel.  ``EXPLAIN``
        calls this without mining.
        """
        return plan_query(
            self.stats(),
            _shape_of(task, interleaved=interleaved, cacheable=cacheable),
            pin_backend=self.counting,
            metrics=self.metrics,
        )

    # ------------------------------------------------------------------
    # per-run telemetry plumbing
    # ------------------------------------------------------------------

    def _monitor_for_run(
        self,
        budget: Optional[RunBudget],
        token: Optional[CancellationToken],
        monitor: Optional[RunMonitor],
        granule_hook: Optional[Callable[[int], None]],
    ) -> Tuple[RunMonitor, Optional[Tracer]]:
        """The (monitor, tracer) pair for one run (explicit monitor wins).

        Tracing rides on the monitor (``monitor.trace``) because the
        monitor is the one per-run object already threaded through every
        counting loop.
        """
        resolved = monitor or RunMonitor(
            budget=budget, token=token, granule_hook=granule_hook, metrics=self.metrics
        )
        if not self.trace:
            return resolved, None
        tracer = Tracer()
        resolved.trace = tracer
        return resolved, tracer

    def _finalize(
        self,
        report: MiningReport,
        tracer: Optional[Tracer],
        plan: Optional[QueryPlan] = None,
        refresh: Optional[RefreshDecision] = None,
    ) -> MiningReport:
        """Attach the plan, refresh decision and run trace to the report.

        Also counts the observed wall time next to the plan's estimate
        (``repro_planner_*_seconds_total``).
        """
        if plan is not None:
            record_observed(plan, report.elapsed_seconds, self.metrics)
            plan_dict = plan.to_dict()
            if refresh is not None:
                plan_dict["refresh"] = refresh.to_dict()
            report = dataclasses.replace(report, plan=plan_dict)
        if tracer is None:
            return report
        trace = tracer.to_dict()
        if plan is not None:
            trace = {**trace, "plan": report.plan}
        report = dataclasses.replace(report, trace=trace)
        if not isinstance(self.trace, bool):
            record = {"task": report.task_name, **trace}
            with open(os.fspath(self.trace), "a", encoding="utf-8") as sink:
                sink.write(json.dumps(record, sort_keys=True) + "\n")
        return report

    # ------------------------------------------------------------------
    # the three tasks
    # ------------------------------------------------------------------

    def valid_periods(
        self,
        task: ValidPeriodTask,
        budget: Optional[RunBudget] = None,
        token: Optional[CancellationToken] = None,
        monitor: Optional[RunMonitor] = None,
        granule_hook: Optional[Callable[[int], None]] = None,
    ) -> MiningReport:
        """Task 1 — discover the valid periods of rules."""
        resolved, tracer = self._monitor_for_run(budget, token, monitor, granule_hook)
        context = self.context(task.granularity)
        refresh = self._refresh_for_run(task.granularity)
        plan = self.plan_for(task)
        report = discover_valid_periods(
            self.database,
            task,
            context=context,
            counting=plan.backend,
            monitor=resolved,
        )
        return self._finalize(report, tracer, plan, refresh=refresh)

    def periodicities(
        self,
        task: PeriodicityTask,
        interleaved: bool = False,
        budget: Optional[RunBudget] = None,
        token: Optional[CancellationToken] = None,
        monitor: Optional[RunMonitor] = None,
        granule_hook: Optional[Callable[[int], None]] = None,
    ) -> MiningReport:
        """Task 2 — discover rule periodicities.

        ``interleaved=True`` selects the cycle-pruning/cycle-skipping
        algorithm (exact cyclic search only; see
        :func:`repro.mining.periodicities.discover_cyclic_interleaved`).
        """
        resolved, tracer = self._monitor_for_run(budget, token, monitor, granule_hook)
        context = self.context(task.granularity)
        refresh = self._refresh_for_run(task.granularity)
        plan = self.plan_for(task, interleaved=interleaved)
        discover = discover_cyclic_interleaved if interleaved else discover_periodicities
        report = discover(
            self.database,
            task,
            context=context,
            counting=plan.backend,
            monitor=resolved,
        )
        return self._finalize(report, tracer, plan, refresh=refresh)

    def with_feature(
        self,
        task: ConstrainedTask,
        apriori_options: Optional[AprioriOptions] = None,
        budget: Optional[RunBudget] = None,
        token: Optional[CancellationToken] = None,
        monitor: Optional[RunMonitor] = None,
        granule_hook: Optional[Callable[[int], None]] = None,
    ) -> MiningReport:
        """Task 3 — mine rules inside a given temporal feature."""
        resolved, tracer = self._monitor_for_run(budget, token, monitor, granule_hook)
        plan = self.plan_for(task)
        report = mine_with_feature(
            self.database,
            task,
            apriori_options=apriori_options,
            counting=plan.backend,
            monitor=resolved,
        )
        return self._finalize(report, tracer, plan)
