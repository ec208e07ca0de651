"""The IQMS session — the integrated query and mining system's kernel.

An :class:`IqmsSession` ties together the pieces the paper's prototype
integrates: the SQLite store (query function), the TML executor (ad-hoc
mining function), the result-analysis helpers, and the IQMI workflow
state machine.  It is both the programmatic API and what the terminal
REPL (:mod:`repro.system.repl`) drives.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.transactions import TransactionDatabase
from repro.db.query import QueryResult
from repro.db.sqlite_store import SqliteStore
from repro.errors import ReproError, TmlExecutionError
from repro.mining.results import MiningReport
from repro.system.reporting import (
    compare_reports,
    filter_by_item,
    report_table,
    result_keys,
)
from repro.runtime.budget import RunBudget
from repro.system.workflow import MiningWorkflow, Stage
from repro.tml.ast import (
    ExplainStatement,
    MineItemsetsStatement,
    MineTrendsStatement,
    MinePeriodicitiesStatement,
    MinePeriodsStatement,
    MineRulesStatement,
    SetBudgetStatement,
    SetEngineStatement,
    SetTraceStatement,
    ShowStatement,
    SqlStatement,
)
from repro.obs.distributed import FlightRecorder
from repro.tml.executor import ExecutionEnvironment, ExecutionResult, TmlExecutor

#: Default slow-statement threshold for the session flight recorder
#: (mirrors :class:`~repro.service.core.ServiceConfig.slow_threshold_seconds`).
SLOW_THRESHOLD_SECONDS = 1.0


class IqmsSession:
    """One interactive mining session over one store.

    >>> session = IqmsSession()                          # doctest: +SKIP
    >>> session.load_database("sales", database)         # doctest: +SKIP
    >>> session.run("SHOW SUMMARY;")                     # doctest: +SKIP
    >>> session.run("MINE PERIODS FROM sales ...;")      # doctest: +SKIP
    """

    def __init__(self, store: Optional[SqliteStore] = None):
        self.store = store if store is not None else SqliteStore(":memory:")
        self.environment = ExecutionEnvironment(store=self.store)
        self.executor = TmlExecutor(self.environment)
        self.workflow = MiningWorkflow()
        self.history: List[ExecutionResult] = []
        self.last_report: Optional[MiningReport] = None
        self.previous_report: Optional[MiningReport] = None
        self._last_mine_source: Optional[str] = None
        self._server = None
        self._service = None
        #: Library-side slow-query flight recorder: statements past the
        #: threshold are captured (with their span tree when tracing is
        #: on) for the REPL's ``.slow``.
        self.flight_recorder = FlightRecorder(
            threshold_seconds=SLOW_THRESHOLD_SECONDS
        )

    # ------------------------------------------------------------------
    # data management
    # ------------------------------------------------------------------

    def load_database(
        self, name: str, database: TransactionDatabase, persist: bool = True
    ) -> None:
        """Register an in-memory dataset; optionally mirror to the store."""
        self.environment.register(name, database)
        if persist:
            self.store.clear()
            self.store.save_database(database)
            self.environment.mark_store_backed(name)
        self.workflow.record(f"loaded dataset {name!r} ({len(database)} transactions)")

    def load_csv(self, name: str, path: Union[str, Path]) -> int:
        """Load a (tid, ts, item) CSV into the store and register it."""
        from repro.db.sqlite_store import load_csv

        loaded = load_csv(self.store, path)
        self.environment.register(name, self.store.load_encoded())
        self.environment.mark_store_backed(name)
        self.workflow.record(f"loaded {loaded} transactions from {path}")
        return loaded

    def datasets(self) -> Dict[str, int]:
        """Registered dataset names with their sizes."""
        return {
            name: len(database)
            for name, database in self.environment.datasets.items()
        }

    # ------------------------------------------------------------------
    # resilience controls
    # ------------------------------------------------------------------

    @property
    def budget(self) -> Optional[RunBudget]:
        """The session budget applied to every mining run (None = off)."""
        return self.environment.budget

    def set_budget(self, budget: Optional[RunBudget]) -> None:
        """Set (or clear, with ``None``) the session mining budget."""
        self.environment.budget = budget
        described = budget.describe() if budget is not None else "off"
        self.workflow.record(f"set budget: {described}")

    @property
    def engine(self) -> str:
        """The counting backend used by mining runs (``"auto"`` = the packed kernel)."""
        return self.environment.engine

    def set_engine(self, engine: str) -> None:
        """Pin (or, with ``"auto"``, unpin) the counting backend."""
        self.environment.set_engine(engine)
        self.workflow.record(f"set engine: {engine}")

    @property
    def trace(self) -> bool:
        """Whether mining runs collect span trees (see :meth:`stats`)."""
        return self.environment.trace

    def set_trace(self, trace: bool) -> None:
        """Turn span-tree tracing of mining runs on or off."""
        self.environment.set_trace(trace)
        self.workflow.record(f"set trace: {'on' if trace else 'off'}")

    def cancel(self) -> None:
        """Ask the mining run in flight to stop at its next safe boundary.

        Safe to call from a signal handler or another thread; the run
        returns a partial report (or raises in strict mode).  A no-op
        when nothing is running — the token is reset at the next
        :meth:`run`.
        """
        self.environment.cancel_token.cancel()

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------

    def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        journal_path: Optional[str] = None,
    ) -> str:
        """Expose this session's store over HTTP; returns the URL.

        Starts a :class:`~repro.service.core.MiningService` sharing this
        session's :class:`SqliteStore` (safe: the store serializes access
        behind its lock) plus a background
        :class:`~repro.service.http.MiningHTTPServer`.  Service queries
        see the store's current contents — a mutation made here shows up
        there as a new dataset fingerprint, so cached results are never
        served stale.  ``port=0`` picks an ephemeral port.

        ``journal_path`` attaches the durable job journal: jobs
        submitted over HTTP survive a session crash and are recovered
        by whichever service next opens the same journal.
        """
        if self._server is not None:
            raise TmlExecutionError(
                f"already serving on {self._server.url} (stop_serving() first)"
            )
        from repro.service.core import MiningService, ServiceConfig
        from repro.service.http import start_server

        self._service = MiningService(
            store=self.store,
            config=ServiceConfig(
                engine=self.environment.engine,
                default_budget=self.environment.budget,
                journal_path=journal_path,
            ),
        )
        self._server, _ = start_server(self._service, host=host, port=port)
        self.workflow.record(f"serving on {self._server.url}")
        return self._server.url

    def stop_serving(self) -> None:
        """Shut down the HTTP server started by :meth:`serve` (idempotent)."""
        if self._server is None:
            return
        url = self._server.url
        self._server.shutdown()
        self._server.server_close()
        self._server = None
        if self._service is not None:
            self._service.close()
            self._service = None
        self.workflow.record(f"stopped serving on {url}")

    @property
    def serving_url(self) -> Optional[str]:
        """The URL of the running HTTP server, or None."""
        return self._server.url if self._server is not None else None

    # ------------------------------------------------------------------
    # the IQMI loop
    # ------------------------------------------------------------------

    def run(self, text: str) -> ExecutionResult:
        """Execute one TML/SQL statement, advancing the workflow."""
        self.environment.cancel_token.reset()
        started = time.perf_counter()
        result = self.executor.execute(text)
        self._record_slow(text, result, time.perf_counter() - started)
        self._account(result)
        return result

    def run_script(self, text: str) -> List[ExecutionResult]:
        """Execute a multi-statement script, advancing the workflow."""
        self.environment.cancel_token.reset()
        started = time.perf_counter()
        results = self.executor.execute_script(text)
        elapsed = time.perf_counter() - started
        if results:
            # A script is captured as one entry — statement-level
            # timings are not observable from the script API.
            self._record_slow(text, results[-1], elapsed)
        for result in results:
            self._account(result)
        return results

    def _record_slow(
        self, text: str, result: ExecutionResult, elapsed: float
    ) -> None:
        entry: Dict[str, object] = {
            "statement": text.strip(),
            "kind": type(result.statement).__name__,
        }
        payload = result.payload
        if isinstance(payload, MiningReport):
            if payload.partial:
                entry["partial"] = True
            if payload.trace is not None:
                entry["trace"] = payload.trace
        self.flight_recorder.consider(elapsed, entry)

    def slow_queries(self) -> Dict[str, object]:
        """The flight recorder's captures (backs the REPL's ``.slow``)."""
        return {
            "stats": self.flight_recorder.stats(),
            "entries": self.flight_recorder.snapshot(),
        }

    def _account(self, result: ExecutionResult) -> None:
        self.history.append(result)
        statement = result.statement
        from repro.tml.ast import ProfileStatement

        if isinstance(
            statement,
            (
                SetBudgetStatement,
                SetEngineStatement,
                SetTraceStatement,
            ),
        ):
            self.workflow.record(statement.render())
            return
        if isinstance(statement, (SqlStatement, ShowStatement, ProfileStatement, ExplainStatement)):
            if self.workflow.stage in (Stage.MINING,):
                # Mining is always followed by analysis in the process.
                self.workflow.advance(Stage.RESULT_ANALYSIS, "inspect results")
            if self.workflow.stage is not Stage.DATA_UNDERSTANDING:
                self.workflow.advance(Stage.DATA_UNDERSTANDING, "query the data")
            else:
                self.workflow.record(statement.render())
            return
        if isinstance(
            statement,
            (
                MinePeriodsStatement,
                MinePeriodicitiesStatement,
                MineRulesStatement,
                MineItemsetsStatement,
                MineTrendsStatement,
            ),
        ):
            if self.workflow.stage is not Stage.TASK_DESIGN:
                self.workflow.advance(Stage.TASK_DESIGN, statement.render())
            else:
                self.workflow.record(statement.render())
            self.workflow.advance(Stage.MINING, f"mine from {statement.source}")
            findings = f"{len(result.payload)} finding(s)"  # type: ignore[arg-type]
            if isinstance(result.payload, MiningReport) and result.payload.partial:
                findings += " (partial)"
            self.workflow.advance(Stage.RESULT_ANALYSIS, findings)
            self.previous_report = self.last_report
            if isinstance(result.payload, MiningReport):
                self.last_report = result.payload
            self._last_mine_source = statement.source

    # ------------------------------------------------------------------
    # result analysis
    # ------------------------------------------------------------------

    def analyse_item(self, label: str) -> MiningReport:
        """Filter the last report to rules mentioning one item."""
        report = self._require_report()
        catalog = self._last_catalog()
        filtered = filter_by_item(report, label, catalog)
        self.workflow.record(f"filtered last report by item {label!r}")
        return filtered

    def compare_with_previous(self):
        """(gained, lost, kept) keys vs the previous mining round."""
        if self.last_report is None or self.previous_report is None:
            raise TmlExecutionError("need two mining rounds to compare")
        comparison = compare_reports(self.previous_report, self.last_report)
        self.workflow.record(
            f"compared rounds: +{len(comparison[0])} -{len(comparison[1])} "
            f"={len(comparison[2])}"
        )
        return comparison

    def last_table(self) -> str:
        """The last mining report as a text table."""
        report = self._require_report()
        return report_table(report, self._last_catalog())

    def stats(self) -> str:
        """A text digest of the session's telemetry.

        Shows the last run's diagnostics, its span tree when tracing was
        on (``SET TRACE ON;`` / :meth:`set_trace`), and the counters from
        the session's metrics registry.  Backs the REPL's ``.stats``.
        """
        from repro.obs.metrics import default_registry
        from repro.obs.trace import format_trace

        lines: List[str] = []
        report = self.last_report
        if report is None:
            lines.append("last run: (no mining run yet)")
        else:
            summary = f"last run: {report.task_name} — {len(report.results)} finding(s)"
            if report.partial:
                summary += " (partial)"
            lines.append(summary)
            diagnostics = report.diagnostics
            lines.append(
                f"  passes={diagnostics.passes_completed}"
                f" granules={diagnostics.granules_covered}"
                f" candidates={diagnostics.candidates_generated}"
                f" rules={diagnostics.rules_emitted}"
                f" stop={diagnostics.stop_reason or 'completed'}"
            )
            if report.trace is not None:
                lines.append("trace:")
                for line in format_trace(report.trace).splitlines():
                    lines.append(f"  {line}")
        registry = (
            self.environment.metrics
            if self.environment.metrics is not None
            else default_registry()
        )
        snapshot = registry.snapshot()
        if snapshot:
            lines.append("metrics:")
            for name in sorted(snapshot):
                value = snapshot[name]
                if isinstance(value, dict) and set(value) == {"count", "sum"}:
                    lines.append(
                        f"  {name} count={value['count']:g} sum={value['sum']:g}"
                    )
                elif isinstance(value, dict):
                    for labels in sorted(value):
                        inner = value[labels]
                        if isinstance(inner, dict):
                            lines.append(
                                f"  {name}{{{labels}}} "
                                f"count={inner['count']:g} sum={inner['sum']:g}"
                            )
                        else:
                            lines.append(f"  {name}{{{labels}}} = {inner:g}")
                else:
                    lines.append(f"  {name} = {value:g}")
        return "\n".join(lines)

    def conclude(self, note: str = "expected knowledge found") -> None:
        """Declare the loop finished (Knowledge reached)."""
        if self.workflow.stage is not Stage.RESULT_ANALYSIS:
            raise TmlExecutionError(
                "conclude() is only meaningful after analysing mining results"
            )
        self.workflow.advance(Stage.KNOWLEDGE, note)

    def _require_report(self) -> MiningReport:
        if self.last_report is None:
            raise TmlExecutionError("no mining report yet — run a MINE statement")
        return self.last_report

    def _last_catalog(self):
        if self._last_mine_source is None:
            raise TmlExecutionError("no mining source yet")
        return self.environment.resolve(self._last_mine_source).catalog
