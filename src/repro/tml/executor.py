"""Execution of parsed TML statements.

The executor binds statements to an :class:`ExecutionEnvironment` —
named in-memory datasets for mining plus an optional SQLite store for the
integrated query function — and dispatches:

* ``MINE ...``   → the :class:`~repro.mining.engine.TemporalMiner` tasks,
* ``SHOW ...``   → the canned data-understanding queries,
* raw SQL        → :func:`repro.db.query.run_query`.

Every execution returns an :class:`ExecutionResult` carrying the
structured payload and, rendered when read, a text form for the REPL.
Datasets are held as :class:`~repro.columnar.encoded.EncodedDatabase`
only: the store loads straight into it and appended rows fold into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from functools import partial
from typing import Callable, Dict, Optional, Union

from repro.columnar.backends import validate_backend_name
from repro.columnar.encoded import EncodedDatabase
from repro.core.transactions import TransactionDatabase
from repro.db.query import (
    QueryResult,
    is_mutating_sql,
    run_mutation,
    run_query,
    summarize,
    top_items,
    volume_by_unit,
)
from repro.db.sqlite_store import SqliteStore
from repro.errors import MiningParameterError, TmlExecutionError
from repro.mining.engine import TemporalMiner, _incremental_from_env
from repro.mining.results import MiningReport
from repro.mining.tasks import (
    ConstrainedTask,
    PeriodicityTask,
    RuleThresholds,
    ValidPeriodTask,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import format_trace
from repro.planner import compute_stats
from repro.runtime.budget import CancellationToken, RunBudget, RunMonitor
from repro.temporal.calendar_algebra import CalendarPattern
from repro.temporal.granularity import Granularity
from repro.temporal.interval import TimeInterval
from repro.temporal.periodicity import CyclicPeriodicity
from repro.tml.ast import (
    CalendarComboFeature,
    CalendarFeature,
    CyclicFeature,
    ExplainStatement,
    FeatureSpec,
    MineItemsetsStatement,
    MinePeriodicitiesStatement,
    MinePeriodsStatement,
    MineRulesStatement,
    MineTrendsStatement,
    NamedCalendarFeature,
    PeriodFeature,
    ProfileStatement,
    SetBudgetStatement,
    SetEngineStatement,
    SetIncrementalStatement,
    SetTraceStatement,
    SetWorkersStatement,
    ShowStatement,
    SqlStatement,
    Statement,
)
from repro.tml.parser import parse_script, parse_statement

#: Why ``SET WORKERS`` parses but never executes: a mining run is serial.
SET_WORKERS_UNSUPPORTED = (
    "SET WORKERS is not supported: every mining run is serial; "
    "to scale out, serve the store from several processes with repro-cluster"
)


@dataclass
class ExecutionResult:
    """Outcome of one statement: a payload plus its text rendering.

    The text is rendered when read — the REPL prints it, while the
    mining service serializes the payload and never pays for it.
    """

    statement: Statement
    payload: Union[MiningReport, QueryResult]
    render: Callable[[], str] = field(repr=False, compare=False)

    @property
    def text(self) -> str:
        return self.render()

    def __str__(self) -> str:
        return self.text


class ExecutionEnvironment:
    """Named datasets + optional store, shared across statements.

    A dataset name used in ``FROM`` resolves to (in order):

    1. a registered in-memory dataset,
    2. the whole store (name ``transactions``) loaded on demand.
    """

    def __init__(
        self,
        store: Optional[SqliteStore] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.store = store
        self.datasets: Dict[str, EncodedDatabase] = {}
        self._miners: Dict[str, TemporalMiner] = {}
        self._store_backed: set = set()
        self.budget: Optional[RunBudget] = None
        self.engine: str = "auto"
        self.incremental: str = _incremental_from_env()
        self.metrics = metrics
        self.trace: bool = False
        self.cancel_token = CancellationToken()
        # Optional per-granule observer threaded into every MINE run's
        # monitor — the seam the mining service's tests (and PR 1's
        # fault-injection harness) use to pace or interrupt runs
        # deterministically.  None in normal operation.
        self.granule_hook = None

    def register(
        self, name: str, database: Union[TransactionDatabase, EncodedDatabase]
    ) -> None:
        """Expose an in-memory database (held as its encoding) under ``name``."""
        if isinstance(database, TransactionDatabase):
            database = database.encoded()
        self.datasets[name] = database
        self._miners.pop(name, None)
        self._store_backed.discard(name)

    def mark_store_backed(self, name: str) -> None:
        """Flag a dataset as mirroring the store, so SQL mutations
        invalidate and reload it (see :meth:`note_store_mutation`)."""
        self._store_backed.add(name)

    def resolve(self, name: str) -> EncodedDatabase:
        if name in self.datasets:
            return self.datasets[name]
        if self.store is not None and name == "transactions":
            database = self.store.load_encoded()
            self.datasets[name] = database
            self._store_backed.add(name)
            return database
        known = sorted(self.datasets)
        raise TmlExecutionError(
            f"unknown source {name!r}; known sources: {known or '(none)'}"
        )

    def miner(self, name: str) -> TemporalMiner:
        miner = self._miners.get(name)
        if miner is None:
            miner = TemporalMiner(
                self.resolve(name),
                counting=self.engine,
                metrics=self.metrics,
                trace=self.trace,
                incremental=self.incremental,
            )
            self._miners[name] = miner
        return miner

    def set_engine(self, engine: str) -> None:
        """Pin the counting backend for every subsequent ``MINE``.

        ``"auto"`` (the default) restores the ``packed`` kernel.  Validates
        against the backend registry and updates cached miners in place
        (their partitioning caches survive — backends share the layout).
        """
        try:
            self.engine = validate_backend_name(engine)
        except MiningParameterError as error:
            raise TmlExecutionError(str(error)) from None
        for miner in self._miners.values():
            miner.set_counting(engine)

    def set_trace(self, trace: bool) -> None:
        """Toggle per-run tracing for every subsequent ``MINE``.

        Cached miners are updated in place; the next run attaches (or
        stops attaching) a serialized span tree to its report.
        """
        self.trace = bool(trace)
        for miner in self._miners.values():
            miner.set_trace(self.trace)

    def set_incremental(self, mode: str) -> None:
        """Select the incremental-maintenance mode for every ``MINE``.

        ``"off"`` (the default) re-counts from scratch each run; ``"on"``
        pins the delta path; ``"auto"`` leaves the delta-vs-full choice
        to the planner's dirty-fraction threshold.  Cached miners are
        updated in place (an invalid mode raises before any state
        changes).
        """
        normalized = str(mode).strip().lower()
        from repro.planner import INCREMENTAL_MODES

        if normalized not in INCREMENTAL_MODES:
            known = ", ".join(INCREMENTAL_MODES)
            raise TmlExecutionError(
                f"unknown incremental mode {mode!r}; expected one of: {known}"
            )
        self.incremental = normalized
        for miner in self._miners.values():
            miner.set_incremental(normalized)

    def note_store_mutation(self) -> None:
        """Invalidate store-backed state after a mutating SQL statement.

        In-memory copies of store-backed datasets are reloaded and their
        cached miners dropped, so the next ``MINE`` sees the new rows
        instead of a stale snapshot.
        """
        if self.store is None:
            return
        for name in sorted(self._store_backed):
            if name in self.datasets:
                catalog = self.datasets[name].catalog
                self.datasets[name] = self.store.load_encoded(catalog=catalog)
            self._miners.pop(name, None)

    def apply_store_append(self, transactions) -> None:
        """Fold appended store rows into mirrored datasets — no reload.

        The delta counterpart of :meth:`note_store_mutation` for
        append-only mutations: each store-backed dataset's miner folds
        the rows into its encoding (:meth:`TemporalMiner.apply_append`,
        retaining per-unit count state when incremental maintenance is
        enabled), and the folded encoding becomes the dataset.
        ``transactions`` holds ``(timestamp, items, tid)`` tuples using
        the tids the store actually assigned, so the fold stays
        identical to what a full reload would produce.
        """
        if self.store is None:
            return
        batch = list(transactions)
        if not batch:
            return
        for name in sorted(self._store_backed):
            if name in self.datasets:
                miner = self.miner(name)
                miner.apply_append(batch)
                self.datasets[name] = miner.database


class TmlExecutor:
    """Parses and runs TML text against an environment."""

    def __init__(self, environment: ExecutionEnvironment):
        self.environment = environment

    # ------------------------------------------------------------------

    def execute(self, text: str) -> ExecutionResult:
        """Parse and run exactly one statement."""
        return self.execute_statement(parse_statement(text))

    def execute_script(self, text: str) -> list:
        """Parse and run a multi-statement script, in order."""
        return [self.execute_statement(s) for s in parse_script(text)]

    def execute_statement(self, statement: Statement) -> ExecutionResult:
        if isinstance(statement, MinePeriodsStatement):
            return self._mine_periods(statement)
        if isinstance(statement, MinePeriodicitiesStatement):
            return self._mine_periodicities(statement)
        if isinstance(statement, MineRulesStatement):
            return self._mine_rules(statement)
        if isinstance(statement, MineItemsetsStatement):
            return self._mine_itemsets(statement)
        if isinstance(statement, MineTrendsStatement):
            return self._mine_trends(statement)
        if isinstance(statement, ExplainStatement):
            return self._explain(statement)
        if isinstance(statement, ProfileStatement):
            return self._profile(statement)
        if isinstance(statement, ShowStatement):
            return self._show(statement)
        if isinstance(statement, SetBudgetStatement):
            return self._set_budget(statement)
        if isinstance(statement, SetEngineStatement):
            return self._set_engine(statement)
        if isinstance(statement, SetWorkersStatement):
            raise TmlExecutionError(SET_WORKERS_UNSUPPORTED)
        if isinstance(statement, SetTraceStatement):
            return self._set_trace(statement)
        if isinstance(statement, SetIncrementalStatement):
            return self._set_incremental(statement)
        if isinstance(statement, SqlStatement):
            return self._sql(statement)
        raise TmlExecutionError(f"cannot execute {statement!r}")

    # ------------------------------------------------------------------

    def _build_task(self, statement: Statement):
        """Task object for a planner-backed MINE statement, or None.

        Shared by execution and ``EXPLAIN`` so the plan shown without
        mining is built from exactly the task the run would use.
        """
        if isinstance(statement, MinePeriodsStatement):
            return ValidPeriodTask(
                granularity=statement.granularity,
                thresholds=RuleThresholds(
                    statement.min_support, statement.min_confidence
                ),
                min_frequency=statement.min_frequency,
                min_coverage=statement.min_coverage,
                max_rule_size=statement.max_size,
                max_consequent_size=statement.max_consequent,
            )
        if isinstance(statement, MinePeriodicitiesStatement):
            patterns = tuple(
                CalendarPattern.parse(text) for text in statement.calendars
            )
            return PeriodicityTask(
                granularity=statement.granularity,
                thresholds=RuleThresholds(
                    statement.min_support, statement.min_confidence
                ),
                max_period=statement.max_period,
                min_match=statement.min_match,
                min_repetitions=statement.min_repetitions,
                calendar_patterns=patterns,
                max_rule_size=statement.max_size,
                max_consequent_size=statement.max_consequent,
            )
        if isinstance(statement, MineRulesStatement):
            return ConstrainedTask(
                feature=resolve_feature(statement.feature),
                thresholds=RuleThresholds(
                    statement.min_support, statement.min_confidence
                ),
                granularity=statement.granularity,
                required_items=statement.containing,
                max_rule_size=statement.max_size,
                max_consequent_size=statement.max_consequent,
            )
        return None

    def _mine_periods(self, statement: MinePeriodsStatement) -> ExecutionResult:
        task = self._build_task(statement)
        report = self.environment.miner(statement.source).valid_periods(
            task,
            budget=self.environment.budget,
            token=self.environment.cancel_token,
            granule_hook=self.environment.granule_hook,
        )
        return self._mined(statement, report)

    def _mine_periodicities(
        self, statement: MinePeriodicitiesStatement
    ) -> ExecutionResult:
        task = self._build_task(statement)
        report = self.environment.miner(statement.source).periodicities(
            task,
            interleaved=statement.interleaved,
            budget=self.environment.budget,
            token=self.environment.cancel_token,
            granule_hook=self.environment.granule_hook,
        )
        return self._mined(statement, report)

    def _mine_rules(self, statement: MineRulesStatement) -> ExecutionResult:
        task = self._build_task(statement)
        report = self.environment.miner(statement.source).with_feature(
            task,
            budget=self.environment.budget,
            token=self.environment.cancel_token,
            granule_hook=self.environment.granule_hook,
        )
        return self._mined(statement, report)

    def _mine_itemsets(self, statement: MineItemsetsStatement) -> ExecutionResult:
        from repro.mining.itemset_periods import discover_itemset_periods

        task = ValidPeriodTask(
            granularity=statement.granularity,
            # Itemsets are undirected; the confidence threshold is moot.
            thresholds=RuleThresholds(statement.min_support, 0.0),
            min_frequency=statement.min_frequency,
            min_coverage=statement.min_coverage,
            max_rule_size=statement.max_size,
        )
        report = discover_itemset_periods(
            self.environment.resolve(statement.source),
            task,
            counting=self.environment.engine,
            monitor=self._run_monitor(),
        )
        return self._mined(statement, report)

    def _mine_trends(self, statement: MineTrendsStatement) -> ExecutionResult:
        from repro.mining.trends import detect_trends

        report = detect_trends(
            self.environment.resolve(statement.source),
            statement.granularity,
            min_support=statement.min_support,
            min_total_change=statement.min_change,
            min_r_squared=statement.min_fit,
            max_size=statement.max_size,
            counting=self.environment.engine,
            monitor=self._run_monitor(),
        )
        return self._mined(statement, report)

    def _run_monitor(self) -> RunMonitor:
        """The monitor of a MINE run no miner task method builds one for.

        Same budget, cancel token, granule hook and metrics as the
        miner's own runs, so ``SET BUDGET`` and a cancel stop it too.
        """
        environment = self.environment
        return RunMonitor(
            budget=environment.budget,
            token=environment.cancel_token,
            granule_hook=environment.granule_hook,
            metrics=environment.metrics,
        )

    def _mined(self, statement, report: MiningReport) -> ExecutionResult:
        """The result of one MINE; its text lists the first 50 findings."""
        catalog = self.environment.resolve(statement.source).catalog
        return ExecutionResult(
            statement, report, partial(report.format, catalog, limit=50)
        )

    def _profile(self, statement: ProfileStatement) -> ExecutionResult:
        from repro.system.profile import support_profile

        database = self.environment.resolve(statement.source)
        for label in statement.labels:
            if label not in database.catalog:
                raise TmlExecutionError(
                    f"unknown item label {label!r} in source {statement.source!r}"
                )
        profile = support_profile(
            database, list(statement.labels), statement.granularity
        )
        return ExecutionResult(statement, profile, partial(profile.format, database.catalog))

    def _explain(self, statement: ExplainStatement) -> ExecutionResult:
        """Describe the task a MINE statement would run, without mining."""
        if statement.analyze:
            return self._explain_analyze(statement)
        inner = statement.inner
        database = self.environment.resolve(inner.source)
        properties = [
            ("statement", type(inner).__name__),
            ("source", inner.source),
            ("transactions", len(database)),
            ("min_support", inner.min_support),
            ("min_confidence", inner.min_confidence),
        ]
        granularity = getattr(inner, "granularity", None)
        if granularity is not None:
            properties.append(("granularity", str(granularity)))
            properties.append(
                ("units_spanned", compute_stats(database).units_spanned(granularity))
            )
        if isinstance(inner, MineRulesStatement):
            feature = resolve_feature(inner.feature)
            from repro.mining.constrained import describe_feature, restrict_database

            restricted = restrict_database(
                database, feature, granularity or Granularity.DAY
            )
            properties.append(("feature", describe_feature(feature)))
            properties.append(("transactions_in_feature", len(restricted)))
        if isinstance(inner, MinePeriodicitiesStatement):
            properties.append(("max_period", inner.max_period))
            properties.append(
                ("algorithm", "interleaved" if inner.interleaved else "generic")
            )
        task = self._build_task(inner)
        if task is not None:
            interleaved = bool(getattr(inner, "interleaved", False))
            miner = self.environment.miner(inner.source)
            plan = miner.plan_for(task, interleaved=interleaved)
            properties.extend(plan.describe_rows())
            if isinstance(task, (ValidPeriodTask, PeriodicityTask)):
                decision = miner.refresh_for(task.granularity)
                if decision is not None:
                    properties.extend(decision.describe_rows())
        result = QueryResult(
            columns=("property", "value"),
            rows=tuple((name, str(value)) for name, value in properties),
        )
        return ExecutionResult(statement, result, partial(result.format, limit=0))

    def _explain_analyze(self, statement: ExplainStatement) -> ExecutionResult:
        """Run the inner MINE under forced tracing; render its telemetry.

        The query executes for real (consuming budget, honouring the
        cancel token), but the result shown is the run's diagnostics and
        span tree rather than its rules.
        """
        previous = self.environment.trace
        self.environment.set_trace(True)
        try:
            inner_result = self.execute_statement(statement.inner)
        finally:
            self.environment.set_trace(previous)
        report = inner_result.payload
        rows = [
            ("statement", type(statement.inner).__name__),
            ("results", str(len(report.results))),
            ("elapsed_seconds", f"{report.elapsed_seconds:.3f}"),
            ("partial", str(report.partial).lower()),
        ]
        diagnostics = report.diagnostics
        rows.extend(
            [
                ("passes_completed", str(diagnostics.passes_completed)),
                ("granules_covered", str(diagnostics.granules_covered)),
                ("candidates_generated", str(diagnostics.candidates_generated)),
                ("rules_emitted", str(diagnostics.rules_emitted)),
            ]
        )
        if diagnostics.stop_reason is not None:
            rows.append(("stop_reason", diagnostics.stop_reason))
        plan = getattr(report, "plan", None)
        if plan is not None:
            pinned = " (pinned)" if plan["backend_pinned"] else ""
            rows.append(("plan: backend", f"{plan['backend']}{pinned}"))
            rows.append(
                (
                    "plan: est vs actual seconds",
                    f"{plan['est_seconds']:.3g} vs {report.elapsed_seconds:.3g}",
                )
            )
            est_total = plan["est_candidates"] * max(plan["n_units"], 1)
            rows.append(
                (
                    "plan: est vs actual candidates",
                    f"{est_total} vs {diagnostics.candidates_generated}",
                )
            )
        if report.trace is not None:
            for line in format_trace(report.trace).splitlines():
                rows.append(("trace", line))
        result = QueryResult(columns=("property", "value"), rows=tuple(rows))
        return ExecutionResult(statement, result, partial(result.format, limit=0))

    def _show(self, statement: ShowStatement) -> ExecutionResult:
        store = self.environment.store
        if store is None:
            raise TmlExecutionError("SHOW requires a store-backed environment")
        if statement.what == "summary":
            result = summarize(store)
        elif statement.what == "items":
            result = top_items(store, limit=statement.limit or 10)
        else:
            result = volume_by_unit(
                store, statement.granularity or Granularity.MONTH
            )
        return ExecutionResult(statement, result, result.format)

    def _set_budget(self, statement: SetBudgetStatement) -> ExecutionResult:
        if statement.off:
            self.environment.budget = None
            result = QueryResult(
                columns=("property", "value"), rows=(("budget", "off"),)
            )
            return ExecutionResult(statement, result, partial(result.format, limit=0))
        budget = RunBudget(
            max_seconds=statement.max_seconds,
            max_candidates=statement.max_candidates,
            max_rules=statement.max_rules,
            strict=statement.strict,
        )
        self.environment.budget = budget
        result = QueryResult(
            columns=("property", "value"), rows=(("budget", budget.describe()),)
        )
        return ExecutionResult(statement, result, partial(result.format, limit=0))

    def _set_engine(self, statement: SetEngineStatement) -> ExecutionResult:
        engine = "auto" if statement.off else statement.engine
        self.environment.set_engine(engine)
        result = QueryResult(
            columns=("property", "value"), rows=(("engine", engine),)
        )
        return ExecutionResult(statement, result, partial(result.format, limit=0))

    def _set_trace(self, statement: SetTraceStatement) -> ExecutionResult:
        self.environment.set_trace(statement.on)
        result = QueryResult(
            columns=("property", "value"),
            rows=(("trace", "on" if statement.on else "off"),),
        )
        return ExecutionResult(statement, result, partial(result.format, limit=0))

    def _set_incremental(self, statement: SetIncrementalStatement) -> ExecutionResult:
        self.environment.set_incremental(statement.mode)
        result = QueryResult(
            columns=("property", "value"),
            rows=(("incremental", self.environment.incremental),),
        )
        return ExecutionResult(statement, result, partial(result.format, limit=0))

    def _sql(self, statement: SqlStatement) -> ExecutionResult:
        store = self.environment.store
        if store is None:
            raise TmlExecutionError("SQL requires a store-backed environment")
        if is_mutating_sql(statement.sql):
            result = run_mutation(store, statement.sql)
            # The store changed under any mirrored dataset: reload them
            # and drop their miners so the next MINE sees the new rows.
            self.environment.note_store_mutation()
        else:
            result = run_query(store, statement.sql)
        return ExecutionResult(statement, result, result.format)


def resolve_feature(spec: FeatureSpec):
    """Turn an AST feature into a concrete temporal feature."""
    if isinstance(spec, PeriodFeature):
        return TimeInterval(
            _parse_timestamp(spec.start_text), _parse_timestamp(spec.end_text)
        )
    if isinstance(spec, CalendarFeature):
        return CalendarPattern.parse(spec.pattern_text)
    if isinstance(spec, CyclicFeature):
        return CyclicPeriodicity(
            period=spec.period,
            offset=spec.offset,
            granularity=spec.granularity,
        )
    if isinstance(spec, NamedCalendarFeature):
        from repro.temporal.calendar_algebra import NAMED_CALENDARS

        pattern = NAMED_CALENDARS.get(spec.name.lower())
        if pattern is None:
            known = ", ".join(sorted(NAMED_CALENDARS))
            raise TmlExecutionError(
                f"unknown named calendar {spec.name!r}; known: {known}"
            )
        return pattern
    if isinstance(spec, CalendarComboFeature):
        left = _as_calendar_expression(resolve_feature(spec.left))
        right = _as_calendar_expression(resolve_feature(spec.right))
        if spec.op == "AND":
            return left.intersect(right)
        if spec.op == "OR":
            return left.union(right)
        return left.difference(right)
    raise TmlExecutionError(f"unsupported feature {spec!r}")


def _as_calendar_expression(feature):
    from repro.temporal.calendar_algebra import CalendarExpression

    if isinstance(feature, CalendarExpression):
        return feature
    if isinstance(feature, CalendarPattern):
        return CalendarExpression.of(feature)
    raise TmlExecutionError(
        f"cannot combine {type(feature).__name__} in a calendar expression"
    )


def _parse_timestamp(text: str) -> datetime:
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise TmlExecutionError(
            f"cannot parse timestamp {text!r} (expected ISO-8601)"
        ) from None
