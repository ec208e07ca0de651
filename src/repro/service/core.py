"""The mining service core — IQMS as a long-running, multi-client system.

:class:`MiningService` composes the pieces the paper's IQMS sketches
around one shared temporal database:

* a :class:`~repro.db.sqlite_store.SqliteStore` (the shared dataset,
  thread-safe behind its documented lock),
* one TML :class:`~repro.tml.executor.ExecutionEnvironment` **per worker
  thread** (miners and their partitioning caches are not shared across
  threads; the store underneath is),
* the content-addressed :class:`~repro.service.cache.ResultCache`,
* the :class:`~repro.service.scheduler.JobScheduler` that bounds
  concurrency and admission.

Execution semantics:

* ``MINE`` statements are cacheable: results are stored under
  ``(canonical TML, store fingerprint, engine settings)`` and identical
  queries are *single-flighted* — concurrent duplicates wait for the
  first run and then hit the cache instead of mining twice.
* A synchronous request that hits the cache is answered on the calling
  thread before admission (:meth:`MiningService.answer_cached`): no
  queue, no worker hand-off, no journal write.  Misses, traced and
  ``async`` requests are admitted and journaled as before.
* Partial results (budget-stopped or cancelled runs) are **never**
  cached; a truncated answer must not impersonate a complete one.
* Mutating SQL invalidates exactly the entries recorded under the
  store's pre-mutation fingerprint; every worker environment compares
  the store fingerprint before each statement and reloads its
  store-backed datasets when it moved (the PR 1 stale-cache path,
  fanned out across threads).
* Session-level ``SET`` statements are rejected: a shared service has
  no per-connection session; budgets travel per request instead.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import threading
import time
import uuid
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.transactions import TransactionDatabase
from repro.db.query import is_mutating_sql
from repro.db.sqlite_store import SqliteStore
from repro.errors import DatabaseError, ReproError, TmlExecutionError
from repro.mining.engine import _incremental_from_env
from repro.obs.distributed import (
    FlightRecorder,
    ResourceProbe,
    TraceContext,
    TraceStore,
    new_trace_context,
    span_node,
)
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.runtime.budget import CancellationToken, RunBudget
from repro.service.cache import ResultCache, cache_key
from repro.service.durability import DiskCacheTier, JobJournal
from repro.service.scheduler import DONE, Job, JobScheduler
from repro.service.serialize import payload_to_dict
from repro.tml.ast import (
    MineItemsetsStatement,
    MinePeriodicitiesStatement,
    MinePeriodsStatement,
    MineRulesStatement,
    MineTrendsStatement,
    SetBudgetStatement,
    SetEngineStatement,
    SetIncrementalStatement,
    SetTraceStatement,
    SetWorkersStatement,
    SqlStatement,
    Statement,
)
from repro.tml.canonical import canonicalize_statement
from repro.tml.executor import ExecutionEnvironment, TmlExecutor
from repro.tml.parser import parse_statement

logger = get_logger(__name__)

#: Statement types whose results are content-addressed in the cache.
CACHEABLE_STATEMENTS = (
    MinePeriodsStatement,
    MinePeriodicitiesStatement,
    MineRulesStatement,
    MineItemsetsStatement,
    MineTrendsStatement,
)

#: Session-level statements that make no sense against a shared service.
SESSION_ONLY_STATEMENTS = (
    SetBudgetStatement,
    SetEngineStatement,
    SetIncrementalStatement,
    SetTraceStatement,
    SetWorkersStatement,
)

@functools.lru_cache(maxsize=1)
def _git_sha() -> str:
    """The short git SHA of the serving code (``"unknown"`` off-checkout).

    Part of the worker identity block in ``GET /v1/status``: a cluster
    router's health checks — and the load-generator report — attribute
    latency to a specific worker *build*, so a mid-rollout fleet mixing
    two revisions is visible instead of a mystery.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return sha or "unknown"


#: How many append fingerprint transitions the in-memory delta chain
#: retains.  A worker whose last-seen fingerprint fell off the chain
#: simply falls back to a full dataset reload — correctness never
#: depends on the bound.
APPEND_LOG_LIMIT = 64

#: Parsed statements memoized per service, by statement text.
PARSE_MEMO_ENTRIES = 1024


@dataclass
class ServiceConfig:
    """Tunables for one :class:`MiningService`.

    Attributes:
        workers: scheduler worker threads (concurrent statements).
        max_queue_depth: queued-job bound (admission control).
        cache_entries / cache_ttl_seconds: result-cache sizing.
        engine: counting backend for every run (``"auto"`` = ``packed``).
        default_budget: budget applied when a request carries none.
        history_limit: finished jobs retained for polling.
        granule_hook: per-granule observer threaded into every run's
            monitor — a test/chaos seam, ``None`` in production.
        metrics: registry every service component instruments through
            (the process-global default registry when ``None``).
        journal_path: durable job-journal file; ``None`` disables the
            journal (jobs die with the process, the PR 4 behaviour).
        journal_synchronous: the journal's SQLite ``synchronous`` pragma
            (``"FULL"`` fsyncs every transition; see
            :class:`~repro.service.durability.JobJournal`).
        disk_cache_path: result-cache spill file; ``None`` disables the
            disk tier (warm results die with the process).
        disk_cache_entries: LRU bound of the spill tier.
        drain_deadline_seconds: how long :meth:`MiningService.drain`
            lets running jobs finish before interrupting them.
        recovery_max_attempts: crash-loop cap — a journaled job that
            *started* this many times without finishing is failed at
            recovery instead of re-admitted.
        incremental: incremental-maintenance mode for every worker
            environment (``"off"``/``"on"``/``"auto"``); ``None`` defers
            to the ``REPRO_INCREMENTAL`` environment variable.
        worker_id: stable identity of this process in a cluster fleet
            (e.g. ``"w0"``); surfaces in ``GET /v1/status`` and the
            ``X-Repro-Worker`` response header.  ``None`` (standalone)
            falls back to ``pid:<os pid>``.
        trace_store_entries: finished traces retained in memory for
            ``GET /v1/traces/{id}``.
        trace_spill_path: optional SQLite spill for the trace store so
            traces survive a restart; ``None`` (the default) keeps
            traces in memory only.
        slow_threshold_seconds: requests slower than this are captured
            in full by the flight recorder (``GET /v1/debug/slow``).
        slow_top_k: flight-recorder capacity (slowest-K retained).
    """

    workers: int = 2
    max_queue_depth: int = 64
    cache_entries: int = 256
    cache_ttl_seconds: Optional[float] = None
    engine: str = "auto"
    default_budget: Optional[RunBudget] = None
    history_limit: int = 1024
    granule_hook: Optional[Callable[[int], None]] = None
    metrics: Optional[MetricsRegistry] = None
    journal_path: Optional[Union[str, Path]] = None
    journal_synchronous: str = "FULL"
    disk_cache_path: Optional[Union[str, Path]] = None
    disk_cache_entries: int = 4096
    drain_deadline_seconds: float = 10.0
    recovery_max_attempts: int = 3
    incremental: Optional[str] = None
    worker_id: Optional[str] = None
    trace_store_entries: int = 512
    trace_spill_path: Optional[Union[str, Path]] = None
    slow_threshold_seconds: float = 1.0
    slow_top_k: int = 32


class MiningService:
    """A shared, schedulable, cached TML execution engine.

    >>> service = MiningService()                        # doctest: +SKIP
    >>> service.load_database(database)                  # doctest: +SKIP
    >>> job = service.submit("MINE PERIODS FROM transactions ...;")
    ...                                                  # doctest: +SKIP
    >>> job.wait(); job.result                           # doctest: +SKIP
    """

    def __init__(
        self,
        store: Union[SqliteStore, str, Path, None] = None,
        config: Optional[ServiceConfig] = None,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.metrics = (
            self.config.metrics
            if self.config.metrics is not None
            else default_registry()
        )
        if isinstance(store, SqliteStore):
            self.store = store
            self._owns_store = False
        else:
            self.store = SqliteStore(store if store is not None else ":memory:")
            self._owns_store = True
        self.spill: Optional[DiskCacheTier] = None
        if self.config.disk_cache_path is not None:
            self.spill = DiskCacheTier(
                self.config.disk_cache_path,
                max_entries=self.config.disk_cache_entries,
                ttl_seconds=self.config.cache_ttl_seconds,
                metrics=self.metrics,
            )
        self.cache = ResultCache(
            max_entries=self.config.cache_entries,
            ttl_seconds=self.config.cache_ttl_seconds,
            metrics=self.metrics,
            spill=self.spill,
        )
        self.journal: Optional[JobJournal] = None
        if self.config.journal_path is not None:
            self.journal = JobJournal(
                self.config.journal_path,
                synchronous=self.config.journal_synchronous,
                metrics=self.metrics,
            )
        self.traces = TraceStore(
            capacity=self.config.trace_store_entries,
            spill_path=(
                str(self.config.trace_spill_path)
                if self.config.trace_spill_path is not None
                else None
            ),
        )
        self.flight_recorder = FlightRecorder(
            threshold_seconds=self.config.slow_threshold_seconds,
            top_k=self.config.slow_top_k,
        )
        self.scheduler = JobScheduler(
            self._execute_job,
            workers=self.config.workers,
            max_queue_depth=self.config.max_queue_depth,
            history_limit=self.config.history_limit,
            metrics=self.metrics,
            journal=self.journal,
        )
        # Runs on the worker thread before the job's done event is set,
        # so synchronous waiters always see attribution and trace id.
        self.scheduler.on_finished = self._on_job_finished
        self.recovered: Dict[str, int] = {}
        self._m_single_flight_waits = self.metrics.counter(
            "repro_cache_single_flight_waits_total",
            "Queries that waited on an identical in-flight run.",
        )
        self._m_traces = self.metrics.counter(
            "repro_traces_stored_total",
            "Distributed trace documents stored by this worker.",
        )
        self._m_slow = self.metrics.counter(
            "repro_slow_captures_total",
            "Requests captured by the slow-query flight recorder.",
        )
        self._m_appends = self.metrics.counter(
            "repro_service_appends_total",
            "Streaming transaction-append batches, by outcome.",
            labelnames=("outcome",),
        )
        self.started_at = time.time()
        # Set by the HTTP server once its socket is bound (port 0 binds
        # ephemerally); None when the service runs without an API.
        self.advertised_port: Optional[int] = None
        # old fingerprint -> (new fingerprint, applied batch): the delta
        # chain worker environments walk instead of reloading wholesale.
        self._append_log: "OrderedDict[str, Tuple[str, List[Tuple]]]" = OrderedDict()
        self._append_lock = threading.Lock()
        self._tls = threading.local()
        # A request is parsed before admission, for its journal row and
        # on the worker; the AST is immutable, so one parse serves all
        # three and every repeat of the same text.
        self._parse = functools.lru_cache(maxsize=PARSE_MEMO_ENTRIES)(parse_statement)
        self._inflight: Dict[str, List] = {}
        self._inflight_lock = threading.Lock()
        self._closed = False
        # Recovery must run last: re-admitted jobs start the worker
        # pool, and workers touch every field initialised above.
        if self.journal is not None:
            self._recover_from_journal()

    # ------------------------------------------------------------------
    # data management
    # ------------------------------------------------------------------

    def load_database(self, database: TransactionDatabase, replace: bool = True) -> int:
        """Persist a dataset into the shared store (source ``transactions``).

        Counts as a mutation: caches are invalidated and every worker
        environment reloads before its next statement.
        """
        old_fingerprint = self.store.fingerprint()
        if replace:
            self.store.clear()
        written = self.store.save_database(database)
        self._note_mutation(old_fingerprint)
        return written

    def load_demo(self, n_transactions: int = 4000, seed: int = 7) -> int:
        """Load the bundled synthetic seasonal demo dataset."""
        from repro.datagen import seasonal_dataset

        dataset = seasonal_dataset(n_transactions=n_transactions, seed=seed)
        return self.load_database(dataset.database)

    @staticmethod
    def _normalize_append(
        transactions: Sequence,
    ) -> List[Tuple[datetime, List[str], Optional[int]]]:
        """Validate and normalize a streamed batch to (ts, items, tid)."""
        batch: List[Tuple[datetime, List[str], Optional[int]]] = []
        for entry in transactions:
            timestamp, items = entry[0], entry[1]
            tid = entry[2] if len(entry) > 2 else None
            if not isinstance(timestamp, datetime):
                raise DatabaseError(
                    f"append timestamps must be datetimes, got {timestamp!r}"
                )
            batch.append((timestamp, list(items), tid))
        return batch

    def append_transactions(
        self,
        transactions: Sequence,
        idempotency_key: Optional[str] = None,
    ) -> Dict[str, object]:
        """Stream a batch of new transactions into the shared store.

        The append-only counterpart of :meth:`load_database`: rows are
        journaled as a write-ahead intent, committed to the store under
        an idempotent append id, and the fingerprint transition is
        recorded on the delta chain so worker environments *fold* the
        new rows into their encoded layouts (and, with incremental
        maintenance on, their per-unit count caches) instead of
        reloading from scratch.  Cache entries for the superseded
        fingerprint are retired as delta refreshes.

        ``transactions`` holds ``(timestamp, items)`` or
        ``(timestamp, items, tid)`` tuples; ``idempotency_key`` makes
        the call retry-safe — a repeated key is acknowledged without
        applying the rows twice (the guarantee spans a crash-restart,
        because the store's marker row commits atomically with the
        data).
        """
        if self._closed:
            raise DatabaseError("service is closed")
        batch = self._normalize_append(transactions)
        append_id = (
            idempotency_key if idempotency_key is not None else uuid.uuid4().hex
        )
        if self.journal is not None:
            self.journal.record_append_intent(
                append_id,
                {
                    "transactions": [
                        [ts.isoformat(), list(items), tid]
                        for ts, items, tid in batch
                    ]
                },
            )
        outcome = self.store.append_batch(batch, append_id=append_id)
        # Both fingerprints come from inside the append's own store
        # transaction: reading them around the call would let a
        # concurrent append land between the reads and break the chain.
        old_fingerprint = outcome.old_fingerprint
        new_fingerprint = outcome.new_fingerprint
        if not outcome.applied:
            # The idempotency key already committed once; acknowledge
            # without re-applying (and settle the journal intent).
            self._m_appends.inc(outcome="duplicate")
            if self.journal is not None:
                self.journal.record_append_applied(append_id, detail="duplicate")
            return {
                "applied": False,
                "appended": 0,
                "tids": [],
                "delta_refreshed": 0,
                "old_fingerprint": old_fingerprint,
                "new_fingerprint": new_fingerprint,
            }
        refreshed = self.cache.note_append(old_fingerprint, new_fingerprint)
        applied = [
            (ts, items, tid)
            for (ts, items, _), tid in zip(batch, outcome.tids)
        ]
        self._record_append(old_fingerprint, new_fingerprint, applied)
        self._m_appends.inc(outcome="applied")
        if self.journal is not None:
            self.journal.record_append_applied(
                append_id,
                detail=json.dumps(
                    {
                        "old_fingerprint": old_fingerprint,
                        "new_fingerprint": new_fingerprint,
                        "delta_refreshed": refreshed,
                    },
                    sort_keys=True,
                ),
            )
        # The fingerprints ride on the outcome so a cluster router can
        # fan exact invalidation of the superseded content out to the
        # rest of the fleet (each peer's *memory* cache tier still holds
        # entries keyed under the old fingerprint — never served, since
        # keys embed the fingerprint, but dead weight until evicted).
        return {
            "applied": True,
            "appended": outcome.count,
            "tids": list(outcome.tids),
            "delta_refreshed": refreshed,
            "old_fingerprint": old_fingerprint,
            "new_fingerprint": new_fingerprint,
        }

    def _record_append(
        self,
        old_fingerprint: str,
        new_fingerprint: str,
        batch: List[Tuple[datetime, List[str], Optional[int]]],
    ) -> None:
        """Push one fingerprint transition onto the bounded delta chain."""
        if old_fingerprint == new_fingerprint:
            return
        with self._append_lock:
            self._append_log[old_fingerprint] = (new_fingerprint, batch)
            self._append_log.move_to_end(old_fingerprint)
            while len(self._append_log) > APPEND_LOG_LIMIT:
                self._append_log.popitem(last=False)

    def _append_chain(
        self, start: Optional[str], target: str
    ) -> Optional[List[List[Tuple]]]:
        """The append batches linking ``start`` to ``target``, or ``None``.

        ``None`` means the chain is broken (a non-append mutation, or the
        transition aged off the bounded log) and the caller must fall
        back to a full reload.
        """
        if start is None:
            return None
        with self._append_lock:
            log = dict(self._append_log)
        chain: List[List[Tuple]] = []
        fingerprint = start
        for _ in range(len(log) + 1):
            if fingerprint == target:
                return chain
            entry = log.get(fingerprint)
            if entry is None:
                return None
            fingerprint = entry[0]
            chain.append(entry[1])
        return None

    # ------------------------------------------------------------------
    # job API (what the HTTP layer drives)
    # ------------------------------------------------------------------

    def _recover_from_journal(self) -> None:
        """Replay the journal into the scheduler (restart recovery).

        Terminal and crash-looped jobs come back as pollable records;
        queued/orphaned/interrupted jobs are re-admitted in original
        submission order and the worker pool starts immediately —
        recovered work must run even if no new request ever arrives.

        Pending append intents replay *first*: a re-admitted job must
        mine the data its client had already streamed in before the
        crash.  Replay goes through the store's idempotent
        :meth:`~repro.db.sqlite_store.SqliteStore.append_batch`, so an
        intent whose store commit survived the crash dedupes instead of
        double-applying.
        """
        appends_replayed = self._replay_pending_appends()
        plan = self.journal.recover(max_attempts=self.config.recovery_max_attempts)
        for record in plan.terminal:
            self.scheduler.restore_terminal(record)
        for record in plan.crash_looped:
            self.scheduler.restore_terminal(record)
        for record in plan.requeue:
            self.scheduler.resubmit(record)
        self.recovered = {
            "terminal": len(plan.terminal),
            "requeued": len(plan.requeue),
            "crash_looped": len(plan.crash_looped),
            "appends_replayed": appends_replayed,
        }
        if plan.requeue:
            self.scheduler.start()

    def _replay_pending_appends(self) -> int:
        """Re-apply journaled append intents the crash left unsettled.

        Returns how many pending intents actually re-inserted rows (an
        intent whose store commit already landed dedupes to a no-op but
        is still settled as applied in the journal).
        """
        replayed = 0
        for append_id, payload in self.journal.pending_appends():
            try:
                batch = [
                    (datetime.fromisoformat(ts), list(items), tid)
                    for ts, items, tid in payload.get("transactions", [])
                ]
                outcome = self.store.append_batch(batch, append_id=append_id)
            except (DatabaseError, TypeError, ValueError) as error:
                logger.error("append replay %s failed: %s", append_id, error)
                self._m_appends.inc(outcome="replay_failed")
                continue
            if outcome.applied and outcome.count:
                self.cache.note_append(outcome.old_fingerprint, outcome.new_fingerprint)
                replayed += 1
                self._m_appends.inc(outcome="replayed")
                detail = "replayed after crash"
            else:
                self._m_appends.inc(outcome="duplicate")
                detail = "store commit survived the crash; deduplicated"
            self.journal.record_append_applied(append_id, detail=detail)
            logger.info("append intent %s: %s", append_id, detail)
        return replayed

    def submit(
        self,
        statement: str,
        priority: int = 0,
        budget: Optional[RunBudget] = None,
        trace: object = False,
        idempotency_key: Optional[str] = None,
    ) -> Job:
        """Queue one statement; returns its :class:`Job` immediately.

        ``trace`` truthy runs the statement under span tracing: the
        result carries a ``trace`` section, the run bypasses the result
        cache (traced payloads embed run-specific timings), and the
        finished job's full span tree lands in the worker's
        :class:`~repro.obs.distributed.TraceStore` under ``trace_id``.
        Pass a :class:`~repro.obs.distributed.TraceContext` (instead of
        ``True``) to join a distributed trace propagated from an
        upstream hop — the stored document keeps the propagated trace
        id and records the upstream span as its parent.

        ``idempotency_key`` makes the submission retry-safe: a second
        submission carrying the same key returns the *existing* job
        instead of admitting a duplicate (the key is also journaled, so
        the guarantee spans a crash-restart).
        """
        return self.scheduler.submit(
            statement,
            priority=priority,
            budget=budget,
            trace=trace,
            idempotency_key=idempotency_key,
            canonical_key=self._canonical_key(statement),
        )

    def _canonical_key(self, statement: str) -> Optional[str]:
        """Best-effort canonical TML for the journal row (audit field).

        Unparseable statements still get admitted (the worker reports
        the parse error as the job failure), so this must never raise.
        """
        try:
            return canonicalize_statement(self._parse(statement))
        except Exception:  # noqa: BLE001 — journal metadata only
            return None

    def run_sync(
        self,
        statement: str,
        priority: int = 0,
        budget: Optional[RunBudget] = None,
        timeout: Optional[float] = 300.0,
        trace: bool = False,
    ) -> Job:
        """Answer one statement: a cache hit at once, else queue and wait."""
        job = self.answer_cached(statement, priority=priority, budget=budget, trace=trace)
        if job is None:
            job = self.submit(statement, priority=priority, budget=budget, trace=trace)
            job.wait(timeout)
        return job

    def answer_cached(
        self,
        statement: str,
        priority: int = 0,
        budget: Optional[RunBudget] = None,
        trace: object = False,
        idempotency_key: Optional[str] = None,
    ) -> Optional[Job]:
        """Answer a result-cache hit on the calling thread, before admission.

        Returns a finished ``cached`` job when ``statement`` is a MINE
        whose result either cache tier holds for the current store
        content.  The job joins the scheduler's in-memory history
        (pollable, idempotency-keyed) but is never queued and never
        journaled: a hit changes no durable state.

        Returns ``None`` for everything else, and the caller admits the
        request through :meth:`submit` unchanged: traced requests, a
        known idempotency key (``submit`` re-attaches), a draining or
        closed service (``submit`` refuses), unparseable and non-MINE
        statements, and misses, which the admitted job's own lookup
        counts.
        """
        if trace or not self.scheduler.accepts_new(idempotency_key):
            return None
        submitted_at = time.time()
        probe = ResourceProbe()
        try:
            parsed = self._parse(statement)
            if not isinstance(parsed, CACHEABLE_STATEMENTS):
                return None
            _, key = self._cache_address(parsed, budget)
        except ReproError:
            # A parse or store error: the admitted job reports it.
            return None
        result = self.cache.get_hit(key)
        if result is None:
            return None
        # Picked up by _on_job_finished, which record_hit runs on this thread.
        self._tls.attribution = probe.finish()
        return self.scheduler.record_hit(
            statement,
            result,
            submitted_at,
            priority=priority,
            budget=budget,
            idempotency_key=idempotency_key,
        )

    def job(self, job_id: str) -> Job:
        return self.scheduler.get(job_id)

    def cancel(self, job_id: str) -> Job:
        return self.scheduler.cancel(job_id)

    # ------------------------------------------------------------------
    # traces / slow queries (what GET /v1/traces* and /v1/debug/slow serve)
    # ------------------------------------------------------------------

    def trace(self, trace_id: str) -> Optional[Dict]:
        """The stored trace document for ``trace_id``, or ``None``."""
        return self.traces.get(trace_id)

    def list_traces(self, min_ms: float = 0.0, limit: int = 50) -> List[Dict]:
        """Stored traces at least ``min_ms`` long, slowest first."""
        return self.traces.query(min_ms=min_ms, limit=limit)

    def slow_queries(self) -> Dict[str, object]:
        """The flight recorder's document (``GET /v1/debug/slow``)."""
        return {
            "worker": self.worker_label,
            "stats": self.flight_recorder.stats(),
            "entries": self.flight_recorder.snapshot(),
        }

    @property
    def worker_label(self) -> str:
        """The short identity stamped on responses (``X-Repro-Worker``)."""
        if self.config.worker_id is not None:
            return self.config.worker_id
        return f"pid:{os.getpid()}"

    def identity(self) -> Dict[str, object]:
        """Who is serving: the ``worker`` block of ``GET /v1/status``.

        A cluster router's health checks key on this, and the load-gen
        report uses it to attribute latency to a specific process.
        """
        return {
            "id": self.worker_label,
            "pid": os.getpid(),
            "port": self.advertised_port,
            "git_sha": _git_sha(),
            "started_at": datetime.fromtimestamp(self.started_at)
            .astimezone()
            .isoformat(),
        }

    def status(self) -> Dict:
        """The ``GET /v1/status`` document."""
        return {
            "service": "repro-iqms",
            "worker": self.identity(),
            "uptime_seconds": time.time() - self.started_at,
            "scheduler": self.scheduler.stats(),
            "journal": (
                self.journal.stats()
                if self.journal is not None
                else {"enabled": False}
            ),
            "recovered": self.recovered,
            "tracing": {
                "traces_held": len(self.traces),
                "trace_spill": (
                    str(self.config.trace_spill_path)
                    if self.config.trace_spill_path is not None
                    else None
                ),
                "slow_queries": self.flight_recorder.stats(),
            },
            "cache": self.cache.stats(),
            "metrics": self.metrics.snapshot(),
            "store": {
                "path": self.store.path,
                "transactions": self.store.count_transactions(),
                # The router's rendezvous routing keys on this, and a
                # fleet whose workers disagree on it is mid-append.
                "fingerprint": self.store.fingerprint(),
            },
            "config": {
                "workers": self.config.workers,
                "max_queue_depth": self.config.max_queue_depth,
                "engine": self.config.engine,
                "cache_entries": self.config.cache_entries,
                "cache_ttl_seconds": self.config.cache_ttl_seconds,
                "default_budget": (
                    self.config.default_budget.describe()
                    if self.config.default_budget is not None
                    else "off"
                ),
                "incremental": self._effective_incremental(),
            },
        }

    def drain(self, deadline_seconds: Optional[float] = None) -> Dict[str, int]:
        """Graceful shutdown: land running work, checkpoint, close.

        The SIGTERM path of ``repro-serve``.  Running jobs get the
        drain deadline to finish; stragglers are interrupted at a pass
        boundary and journaled with their sound partial results; queued
        jobs stay journaled ``queued``.  The journal WAL is
        checkpointed so the next boot reads one clean file.  Returns
        the scheduler's drain summary.
        """
        deadline = (
            deadline_seconds
            if deadline_seconds is not None
            else self.config.drain_deadline_seconds
        )
        summary = self.scheduler.drain(deadline)
        if self.journal is not None:
            try:
                self.journal.checkpoint()
            except Exception as error:  # noqa: BLE001 — exit path, log only
                logger.error("journal checkpoint at drain failed: %s", error)
        self.close()
        return summary

    def simulate_crash(self) -> None:
        """Chaos seam: emulate ``kill -9`` without leaving the process.

        The journal is frozen (writes after this point never happened,
        exactly what an abrupt power loss leaves on disk) and the
        scheduler abandons its workers without recording anything —
        running jobs stay orphaned as ``running`` journal rows.  The
        store/journal/spill *files* are untouched: a new
        :class:`MiningService` opened on the same paths is the
        "restarted process" the chaos suite asserts against.
        """
        if self.journal is not None:
            self.journal.freeze()
        self.scheduler.abandon()
        self._closed = True

    def close(self) -> None:
        """Shut down: drain the scheduler, close the store."""
        if self._closed:
            self._close_durable()
            return
        self._closed = True
        self.scheduler.close()
        if self._owns_store:
            self.store.close()
        self.traces.close()
        self._close_durable()

    def _close_durable(self) -> None:
        if self.journal is not None:
            self.journal.close()
        if self.spill is not None:
            self.spill.close()

    def __enter__(self) -> "MiningService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # statement execution (runs on scheduler worker threads)
    # ------------------------------------------------------------------

    def _execute_job(
        self,
        statement_text: str,
        token: CancellationToken,
        budget: Optional[RunBudget],
        trace: object = False,
    ) -> Tuple[Dict, bool, Optional[Dict]]:
        """The scheduler callback: execute one statement, with attribution.

        Wraps :meth:`_execute_statement` in a
        :class:`~repro.obs.distributed.ResourceProbe` and stashes the
        measured attribution thread-locally — :meth:`_on_job_finished`
        (called by the scheduler on this same worker thread, before
        waiters wake) picks it up and attaches it to the job record and
        the root span.  The stash survives the error path too: failed
        jobs still carry their resource cost.
        """
        probe = ResourceProbe()
        try:
            return self._execute_statement(statement_text, token, budget, trace)
        finally:
            self._tls.attribution = probe.finish()

    def _execute_statement(
        self,
        statement_text: str,
        token: CancellationToken,
        budget: Optional[RunBudget],
        trace: object = False,
    ) -> Tuple[Dict, bool, Optional[Dict]]:
        """Execute one statement, maybe cached.

        Returns ``(result, cached, plan)`` — the plan is the planner's
        decision dict for MINE runs (``None`` on cache hits: no run
        happened, so there is no plan to report) and lands on the job
        record, next to the run's timings, rather than in the cacheable
        payload, which holds the answer alone.
        """
        statement = self._parse(statement_text)
        if isinstance(statement, SESSION_ONLY_STATEMENTS):
            raise TmlExecutionError(
                "session-level SET statements are not supported over the "
                "service API; pass a per-request budget instead"
            )
        # Traced runs bypass the cache in both directions: their payload
        # embeds run-specific timings (never bit-stable), and serving a
        # cached untraced result would silently drop the trace.
        if isinstance(statement, CACHEABLE_STATEMENTS) and not trace:
            return self._execute_cacheable(statement, token, budget)
        mutating = isinstance(statement, SqlStatement) and is_mutating_sql(
            statement.sql
        )
        old_fingerprint = self.store.fingerprint() if mutating else None
        result, plan = self._run_statement(statement, token, budget, trace=trace)
        if mutating:
            result["invalidated_entries"] = self._note_mutation(old_fingerprint)
            # Mutating results are never cached, so the fingerprint can
            # travel on them; the cluster router uses it to fan exact
            # invalidation out to the other workers' memory tiers.
            result["old_fingerprint"] = old_fingerprint
        return result, False, plan

    def _cache_address(
        self, statement: Statement, budget: Optional[RunBudget]
    ) -> Tuple[str, str]:
        """``(store fingerprint, cache key)`` of a cacheable statement now.

        The one key computation: the pre-admission probe and the
        admitted run both use it, so they always address one entry.
        """
        fingerprint = self.store.fingerprint()
        key = cache_key(
            canonicalize_statement(statement), fingerprint, self._settings(budget)
        )
        return fingerprint, key

    def _execute_cacheable(
        self,
        statement: Statement,
        token: CancellationToken,
        budget: Optional[RunBudget],
    ) -> Tuple[Dict, bool, Optional[Dict]]:
        fingerprint, key = self._cache_address(statement, budget)
        # Single flight per key: concurrent identical queries block here
        # while the first one mines, then read its cached result.  The
        # lookup stays here although answer_cached probed first: a
        # follower finds the leader's result only after waiting.
        with self._single_flight(key) as waited:
            if waited:
                self._m_single_flight_waits.inc()
            cached = self.cache.get(key)
            if cached is not None:
                return cached, True, None
            result, plan = self._run_statement(
                statement, token, budget, fingerprint=fingerprint
            )
            # Guard against a mutation racing this run: a mutating
            # statement on another worker may commit between the
            # fingerprint read above and the environment's dataset
            # reload, in which case the run mined post-mutation data
            # and must not be cached under the pre-mutation key (its
            # invalidation hook already fired and would never purge
            # the poisoned entry).
            if not result.get("partial") and self.store.fingerprint() == fingerprint:
                self.cache.put(key, result, fingerprint)
            return result, False, plan

    def _run_statement(
        self,
        statement: Statement,
        token: CancellationToken,
        budget: Optional[RunBudget],
        fingerprint: Optional[str] = None,
        trace: object = False,
    ) -> Tuple[Dict, Optional[Dict]]:
        """Run one statement; returns (serialized payload, plan dict).

        The plan travels *next to* the payload, never inside it: the
        payload may be cached and must stay byte-identical across runs,
        while the plan belongs with the run's timings on the job record.
        """
        environment, executor = self._environment()
        self._refresh_environment(environment, fingerprint)
        effective = budget if budget is not None else self.config.default_budget
        environment.budget = effective
        environment.cancel_token = token
        # The environment only knows tracing on/off; a distributed
        # TraceContext still means "on" here (its ids are attached at
        # trace-assembly time, not inside the miner).
        trace_on = bool(trace)
        if environment.trace != trace_on:
            environment.set_trace(trace_on)
        # Bound DB retry backoff by the run's own deadline: a budgeted
        # run must never sleep past the point where its budget would
        # have stopped it anyway (thread-local — budgets are per job,
        # the store is shared).
        if effective is not None and effective.max_seconds is not None:
            self.store.set_retry_deadline(time.monotonic() + effective.max_seconds)
        try:
            execution = executor.execute_statement(statement)
        finally:
            self.store.set_retry_deadline(None)
        catalog = None
        source = getattr(statement, "source", None)
        if source is not None:
            catalog = environment.resolve(source).catalog
        plan = getattr(execution.payload, "plan", None)
        return payload_to_dict(execution.payload, catalog), plan

    def _on_job_finished(self, job: Job, state: str) -> None:
        """Scheduler hook: attach attribution + assemble the trace.

        Runs on the worker thread that executed the job, with the
        scheduler lock held, *before* the terminal transition wakes
        waiters — so the rendered job record (and, for traced jobs, the
        stored trace document) is complete the moment ``job.wait()``
        returns.  The attribution was stashed thread-locally by
        :meth:`_execute_job` on this same thread.
        """
        attribution = getattr(self._tls, "attribution", None)
        self._tls.attribution = None
        wait_seconds = 0.0
        if job.started_at is not None:
            wait_seconds = max(0.0, job.started_at - job.submitted_at)
        elapsed = float((attribution or {}).get("elapsed_seconds", 0.0))
        resources: Dict[str, object] = dict(attribution or {})
        resources["wait_seconds"] = round(wait_seconds, 6)
        # The cache tier outcome: traced runs bypass by design (PR 5
        # invariant), cache hits never ran, everything else mined.
        resources["cache"] = (
            "hit" if job.cached else ("bypassed" if job.trace else "miss")
        )
        if job.plan is not None:
            # Planner estimate vs actual, per query: what the planner's
            # aggregate counters cannot give.
            resources["plan_backend"] = job.plan.get("backend")
            resources["planner_est_seconds"] = job.plan.get("est_seconds")
            resources["actual_seconds"] = round(elapsed, 6)
        job.resources = resources

        trace_id: Optional[str] = None
        trace_document: Optional[Dict] = None
        if job.trace:
            context = (
                job.trace
                if isinstance(job.trace, TraceContext)
                else new_trace_context()
            )
            trace_id = context.trace_id
            job.trace_id = trace_id
            wait_ms = wait_seconds * 1000.0
            exec_ms = elapsed * 1000.0
            miner_trace = (
                job.result.get("trace") if isinstance(job.result, dict) else None
            )
            execute_children = list((miner_trace or {}).get("spans") or [])
            root_attrs: Dict[str, object] = {
                "job_id": job.job_id,
                "worker": self.worker_label,
                "statement": job.statement,
                "state": state,
            }
            root_attrs.update(resources)
            root = span_node(
                "worker.job",
                0.0,
                wait_ms + exec_ms,
                attrs=root_attrs,
                children=[
                    span_node("scheduler.wait", 0.0, wait_ms),
                    # The miner's own span tree (mine → passes) grafts
                    # under the execute span; its start_ms offsets stay
                    # relative to the miner's clock origin — durations
                    # are the cross-process meaningful quantity.
                    span_node(
                        "execute", wait_ms, exec_ms, children=execute_children
                    ),
                ],
                status="ok" if state == DONE else state,
            )
            trace_document = {
                "trace_id": trace_id,
                "span_id": context.span_id,
                "worker": self.worker_label,
                "job_id": job.job_id,
                "duration_ms": round((wait_seconds + elapsed) * 1000.0, 3),
                "spans": [root],
            }
            self.traces.put(trace_id, trace_document)
            self._m_traces.inc()

        entry: Dict[str, object] = {
            "job_id": job.job_id,
            "statement": job.statement,
            "state": state,
            "worker": self.worker_label,
            "resources": resources,
        }
        if job.plan is not None:
            entry["plan"] = job.plan
        if trace_id is not None:
            entry["trace_id"] = trace_id
        if trace_document is not None:
            entry["trace"] = trace_document
        if self.flight_recorder.consider(wait_seconds + elapsed, entry):
            self._m_slow.inc()

    # ------------------------------------------------------------------
    # worker environments / invalidation
    # ------------------------------------------------------------------

    def _environment(self) -> Tuple[ExecutionEnvironment, TmlExecutor]:
        """This worker thread's environment (created on first use)."""
        environment = getattr(self._tls, "environment", None)
        if environment is None:
            environment = ExecutionEnvironment(store=self.store, metrics=self.metrics)
            environment.set_engine(self.config.engine)
            if self.config.incremental is not None:
                environment.set_incremental(self.config.incremental)
            environment.granule_hook = self.config.granule_hook
            self._tls.environment = environment
            self._tls.executor = TmlExecutor(environment)
        return environment, self._tls.executor

    def _refresh_environment(
        self,
        environment: ExecutionEnvironment,
        fingerprint: Optional[str] = None,
    ) -> None:
        """Reload store-backed datasets if the store content moved.

        ``fingerprint`` lets a cacheable run pin the exact content its
        cache key was computed from, so the mined snapshot and the key
        can never disagree.
        """
        current = fingerprint if fingerprint is not None else self.store.fingerprint()
        known = getattr(self._tls, "fingerprint", None)
        if known == current:
            return
        chain = self._append_chain(known, current)
        if chain is not None:
            # Every transition between the last-seen content and the
            # current one was an append: fold the batches in, in order,
            # instead of reloading — cached miners keep their encoded
            # layouts (and per-unit counts under incremental modes).
            for batch in chain:
                environment.apply_store_append(batch)
        else:
            environment.note_store_mutation()
        self._tls.fingerprint = current

    def _note_mutation(self, old_fingerprint: Optional[str]) -> int:
        """Invalidate exactly the pre-mutation content's cache entries."""
        if old_fingerprint is None:
            return 0
        return self.cache.invalidate_fingerprint(old_fingerprint)

    def invalidate_fingerprint(self, fingerprint: str) -> int:
        """Drop one store fingerprint's cache entries (both tiers).

        The ``POST /v1/cache/invalidate`` surface: when a peer worker
        mutates the shared store, the cluster router fans the superseded
        fingerprint out here so this process's memory tier drops its
        stale (never-servable, key-mismatched) entries immediately
        instead of bleeding them out through LRU.  Idempotent — the
        shared disk tier was already purged by the mutating worker, so
        the second pass there removes nothing.
        """
        return self.cache.invalidate_fingerprint(fingerprint)

    def _settings(self, budget: Optional[RunBudget]) -> Dict[str, object]:
        """The result-relevant settings mixed into every cache key."""
        effective = budget if budget is not None else self.config.default_budget
        return {
            "engine": self.config.engine,
            "budget": effective.describe() if effective is not None else "off",
            "incremental": self._effective_incremental(),
        }

    def _effective_incremental(self) -> str:
        """The incremental mode every worker environment runs under."""
        if self.config.incremental is not None:
            return self.config.incremental
        return _incremental_from_env()

    @contextmanager
    def _single_flight(self, key: str):
        """Yields True when this caller had to wait behind an in-flight run."""
        with self._inflight_lock:
            entry = self._inflight.get(key)
            if entry is None:
                entry = [threading.Lock(), 0]
                self._inflight[key] = entry
            entry[1] += 1
        waited = not entry[0].acquire(blocking=False)
        if waited:
            entry[0].acquire()
        try:
            yield waited
        finally:
            entry[0].release()
            with self._inflight_lock:
                entry[1] -= 1
                if entry[1] == 0:
                    self._inflight.pop(key, None)
