"""The job scheduler — priority queue, bounded workers, job lifecycle.

One :class:`JobScheduler` turns the single-user library into a
multi-tenant service: statements arrive as *jobs*, wait in a priority
queue, and run on a bounded pool of worker threads (mining releases the
GIL in its numpy kernels, so threads are the right concurrency unit
here; a cluster fleet scales out across processes).

Lifecycle::

    submit() ──> QUEUED ──> RUNNING ──> DONE
                    │           │  ├──> FAILED
                    │           │  └──> INTERRUPTED   (drain/crash; re-run next boot)
                    └───────────┴─────> CANCELLED

* **Admission control** — at most ``max_queue_depth`` jobs may be
  queued; past that, :meth:`submit` raises
  :class:`~repro.errors.AdmissionError` (HTTP 503 at the API boundary).
* **Durability** — with a :class:`~repro.service.durability.JobJournal`
  attached, every lifecycle edge is journaled (fsync'd) *inside* the
  transition's critical section, so the on-disk state never runs ahead
  of or behind the in-memory state.  :meth:`resubmit` and
  :meth:`restore_terminal` are the restart-recovery entry points;
  :meth:`drain` is the graceful-shutdown one; :meth:`abandon` is the
  chaos seam that emulates ``kill -9``.
* **Cache hits skip the queue** — :meth:`record_hit` keeps a job the
  service answered from its result cache on the calling thread: done
  on arrival, pollable and idempotency-keyed, never queued, never
  journaled.  :meth:`accepts_new` is the check the service makes first,
  so a draining scheduler or a known key still goes through
  :meth:`submit`.
* **Idempotent admission** — a submission carrying an idempotency key
  the scheduler has already seen returns the *existing* job instead of
  admitting a duplicate, which is what makes client-side retries of a
  ``POST /v1/query`` safe.
* **Per-job resilience wiring** — every job gets its own
  :class:`~repro.runtime.budget.CancellationToken`, and may carry its
  own :class:`~repro.runtime.budget.RunBudget`.  Cancelling a queued
  job removes it before it ever runs; cancelling a running job trips
  its token, and the PR 1 machinery stops the run at the next pass
  boundary with a *sound partial result*, which is kept on the job
  record.
* **Observability** — every job is queryable by id until it ages out of
  the bounded finished-job history; :meth:`stats` reports queue depth
  and per-state counts for ``GET /v1/status``.
"""

from __future__ import annotations

import heapq
import itertools
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import AdmissionError, DatabaseError, JobNotFoundError, ServiceError
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.runtime.budget import CancellationToken, RunBudget
from repro.runtime.faultinject import SimulatedCrash
from repro.service.durability.journal import JobJournal, JournalRecord

logger = get_logger(__name__)

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
INTERRUPTED = "interrupted"

#: States a job can never leave *in this process*.  ``INTERRUPTED`` is
#: terminal here (the record is final, ``wait()`` returns) but the
#: journal keeps it recoverable: the next boot re-admits and re-runs it.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED, INTERRUPTED})


@dataclass
class Job:
    """One unit of service work: a TML statement plus its lifecycle."""

    job_id: str
    statement: str
    priority: int = 0
    budget: Optional[RunBudget] = None
    #: Truthy = tracing on.  Either a plain ``True`` (local tracing) or a
    #: :class:`~repro.obs.distributed.TraceContext` (distributed parent
    #: propagated from the HTTP hop); execute callbacks that only care
    #: about on/off can keep treating it as a bool.
    trace: object = False
    state: str = QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[Dict] = None
    error: Optional[str] = None
    cached: bool = False
    #: The planner's decision for this run (``QueryPlan.to_dict()``);
    #: ``None`` for cache hits (no run happened) and non-MINE statements.
    plan: Optional[Dict] = None
    cancel_requested: bool = False
    idempotency_key: Optional[str] = None
    #: Times a worker has *started* this job (journaled; caps crash loops).
    attempts: int = 0
    #: Set by drain: the token trip means "stop at a pass boundary and
    #: leave the journal row recoverable", not "the user cancelled".
    interrupted: bool = False
    #: True when this record was rebuilt from the journal after a restart.
    recovered: bool = False
    #: Per-job resource attribution (CPU seconds, peak RSS, cache tier
    #: outcome, ...) measured by the execute callback; attached by the
    #: scheduler's ``on_finished`` hook before waiters wake.
    resources: Optional[Dict] = None
    #: The distributed trace id covering this job (traced jobs only).
    trace_id: Optional[str] = None
    token: CancellationToken = field(default_factory=CancellationToken)
    _done: threading.Event = field(default_factory=threading.Event, repr=False)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state (True on arrival)."""
        return self._done.wait(timeout)

    def to_dict(self) -> Dict:
        """The job record as served by ``GET /v1/jobs/{id}``."""
        record = {
            "job_id": self.job_id,
            "statement": self.statement,
            "priority": self.priority,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cached": self.cached,
            "cancel_requested": self.cancel_requested,
            "error": self.error,
            "result": self.result,
        }
        if self.plan is not None:
            record["plan"] = self.plan
        if self.budget is not None:
            record["budget"] = self.budget.describe()
        if self.trace:
            record["trace"] = True
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
        if self.resources is not None:
            record["resources"] = self.resources
        if self.idempotency_key is not None:
            record["idempotency_key"] = self.idempotency_key
        if self.attempts > 1 or self.recovered:
            record["attempts"] = self.attempts
        if self.recovered:
            record["recovered"] = True
        return record


class JobScheduler:
    """Priority queue + bounded worker pool over an execute callback.

    Args:
        execute: ``execute(statement_text, token, budget, trace) ->
            (result, cached, plan)`` — the service core's statement
            runner.  ``plan`` is the planner's decision dict (``None``
            for cache hits and non-MINE statements) and lands on the
            job record.  It must honour the token cooperatively (PR 1
            semantics) and may raise any
            :class:`~repro.errors.ReproError`.
        workers: worker-thread count (>= 1).
        max_queue_depth: queued-job bound enforced at admission.
        history_limit: finished jobs retained for ``GET /v1/jobs/{id}``.
        clock: injectable wall clock (tests).
        metrics: registry for the scheduler's instruments (the
            process-global default when omitted).
        journal: optional durable job journal; when present every
            lifecycle transition is recorded inside its critical
            section.  Journal failures are logged and counted, never
            surfaced to the job — a broken disk degrades durability,
            not availability.
    """

    def __init__(
        self,
        execute: Callable[..., Tuple[Dict, bool, Optional[Dict]]],
        workers: int = 2,
        max_queue_depth: int = 64,
        history_limit: int = 1024,
        clock: Callable[[], float] = time.time,
        metrics: Optional[MetricsRegistry] = None,
        journal: Optional[JobJournal] = None,
    ):
        if workers < 1:
            raise ServiceError(f"scheduler workers must be >= 1, got {workers}")
        if max_queue_depth < 1:
            raise ServiceError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        self._execute = execute
        registry = metrics if metrics is not None else default_registry()
        self._m_admitted = registry.counter(
            "repro_scheduler_admitted_total", "Jobs admitted past admission control."
        )
        self._m_rejected = registry.counter(
            "repro_scheduler_rejected_total",
            "Submissions rejected because the queue was saturated.",
        )
        self._m_jobs = registry.counter(
            "repro_scheduler_jobs_total",
            "Jobs finished, by terminal state.",
            labelnames=("state",),
        )
        self._m_queue_depth = registry.gauge(
            "repro_scheduler_queue_depth", "Jobs currently queued."
        )
        self._m_running = registry.gauge(
            "repro_scheduler_running", "Jobs currently running on a worker."
        )
        self._m_wait = registry.histogram(
            "repro_scheduler_wait_seconds",
            "Queue wait time from submission to worker pickup.",
        )
        self._m_run = registry.histogram(
            "repro_scheduler_run_seconds", "Job execution wall time."
        )
        self._m_draining = registry.gauge(
            "repro_scheduler_draining",
            "1 while the scheduler is draining for shutdown, else 0.",
        )
        self._m_resubmitted = registry.counter(
            "repro_scheduler_resubmitted_total",
            "Jobs re-admitted from the journal by restart recovery.",
        )
        self._m_journal_errors = registry.counter(
            "repro_scheduler_journal_errors_total",
            "Journal writes that failed and were degraded to in-memory only.",
        )
        self.workers = workers
        self.max_queue_depth = max_queue_depth
        self.history_limit = history_limit
        self._clock = clock
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        # Max-priority first; FIFO within a priority via the tiebreaker.
        self._heap: List[Tuple[int, int, str]] = []
        self._counter = itertools.count()
        self._jobs: Dict[str, Job] = {}
        self._finished_order: List[str] = []
        self._queued = 0
        self._running = 0
        self._closed = False
        self._draining = False
        self._drain_deadline: Optional[float] = None
        self._abandoned = False
        self._journal = journal
        self._idempotency: Dict[str, str] = {}
        self._threads: List[threading.Thread] = []
        self._started = False
        #: Optional ``on_finished(job, state)`` hook, called on the
        #: worker thread *before* the terminal transition is recorded —
        #: i.e. before ``job.wait()`` returns and before the record is
        #: served — so it can attach attribution/trace data that
        #: synchronous waiters must observe.  Exceptions are logged and
        #: never fail the job.
        self.on_finished: Optional[Callable[[Job, str], None]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spin up the worker pool (idempotent)."""
        with self._lock:
            if self._started:
                return
            self._started = True
            for index in range(self.workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-service-worker-{index}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    def close(self, wait: bool = True, timeout: float = 10.0) -> None:
        """Stop accepting work, cancel what's left, release the workers."""
        with self._available:
            if self._closed:
                return
            self._closed = True
            # Cancel everything still queued; running jobs get their
            # tokens tripped and finish as cancelled-with-partials.
            # (Snapshot: finishing a job can evict history from _jobs.)
            for job in list(self._jobs.values()):
                if job.state == QUEUED:
                    self._finish_locked(job, CANCELLED, error="service shutting down")
                elif job.state == RUNNING:
                    job.cancel_requested = True
                    job.token.cancel()
            self._heap.clear()
            self._queued = 0
            self._available.notify_all()
        if wait:
            deadline = self._clock() + timeout
            for thread in self._threads:
                remaining = max(0.0, deadline - self._clock())
                thread.join(remaining)

    def drain(self, deadline_seconds: float = 10.0) -> Dict[str, int]:
        """Graceful shutdown: stop admitting, land running work, close.

        * New submissions are rejected immediately (503 + ``Retry-After``
          at the API boundary); queued jobs are **left journaled as
          queued** — the next boot runs them.
        * Running jobs get ``deadline_seconds`` to finish normally.
          Stragglers have their tokens tripped, finish at the next pass
          boundary with a *sound partial result*, and are journaled
          ``interrupted`` — the next boot re-runs them to completion.
        * Worker threads are joined; the caller checkpoints the journal.

        Returns a summary: jobs that ``completed`` during the drain,
        running jobs ``interrupted`` at the deadline, and queued jobs
        ``requeued`` (deferred to the next boot).
        """
        with self._available:
            if self._closed or self._draining:
                return {"completed": 0, "interrupted": 0, "requeued": 0}
            self._draining = True
            self._drain_deadline = self._clock() + max(0.0, deadline_seconds)
            self._m_draining.set(1)
            running_at_start = self._running
            self._available.notify_all()
        logger.info(
            "draining: %d running job(s), deadline %.1fs",
            running_at_start,
            deadline_seconds,
        )
        # Phase 1 — let running jobs land on their own.
        while self._clock() < self._drain_deadline:
            with self._lock:
                if self._running == 0:
                    break
            time.sleep(0.05)
        # Phase 2 — interrupt the stragglers (token trip = stop at the
        # next pass boundary with sound partials, PR 1 semantics).
        interrupted = 0
        with self._available:
            for job in list(self._jobs.values()):
                if job.state == RUNNING:
                    interrupted += 1
                    job.interrupted = True
                    job.token.cancel()
        # Phase 3 — a short grace for the interrupted runs to reach
        # their pass boundary and journal their partials.
        if interrupted:
            grace_end = self._clock() + max(2.0, deadline_seconds)
            while self._clock() < grace_end:
                with self._lock:
                    if self._running == 0:
                        break
                time.sleep(0.05)
        # Phase 4 — queued jobs stay journaled ``queued`` for the next
        # boot; in-process they finish as interrupted (no journal write)
        # so waiting clients unblock with an honest record.
        requeued = 0
        with self._available:
            for job in list(self._jobs.values()):
                if job.state == QUEUED:
                    requeued += 1
                    self._queued -= 1
                    self._finish_locked(
                        job,
                        INTERRUPTED,
                        error=(
                            "service draining; job remains journaled and "
                            "will resume on the next boot"
                        ),
                        journal=False,
                    )
            self._heap.clear()
            self._m_queue_depth.set(self._queued)
            self._closed = True
            self._available.notify_all()
        for thread in self._threads:
            thread.join(2.0)
        completed = max(0, running_at_start - interrupted)
        summary = {
            "completed": completed,
            "interrupted": interrupted,
            "requeued": requeued,
        }
        logger.info("drain finished: %s", summary)
        return summary

    def abandon(self) -> None:
        """Chaos seam: emulate process death (``kill -9``) in-process.

        Workers stop *without recording anything*: running jobs stay
        RUNNING (orphaned, exactly as a crash leaves them in the
        journal), queued jobs stay queued, nothing is cancelled or
        finished.  Pair with :meth:`JobJournal.freeze` — together they
        are the crash-restart harness's power-loss point.
        """
        with self._available:
            self._abandoned = True
            self._closed = True
            self._heap.clear()
            for job in self._jobs.values():
                if job.state == RUNNING:
                    # Trip tokens so in-flight runs return quickly; the
                    # worker loop sees _abandoned and records nothing.
                    job.token.cancel()
            self._available.notify_all()

    # ------------------------------------------------------------------
    # submission / queries
    # ------------------------------------------------------------------

    def _journal_safe(self, action: Callable[[], None], describe: str) -> None:
        """Run one journal write, degrading failures to a log line.

        The journal is the durability promise, not the availability
        one: a job must never fail because the journal disk did.
        """
        if self._journal is None:
            return
        try:
            action()
        except (DatabaseError, sqlite3.Error) as error:
            self._m_journal_errors.inc()
            logger.error(
                "journal write (%s) failed; continuing without durability: %s",
                describe,
                error,
            )

    def submit(
        self,
        statement: str,
        priority: int = 0,
        budget: Optional[RunBudget] = None,
        trace: object = False,
        idempotency_key: Optional[str] = None,
        canonical_key: Optional[str] = None,
    ) -> Job:
        """Admit one job; raises :class:`AdmissionError` when saturated.

        A submission whose ``idempotency_key`` matches a job this
        scheduler already knows returns that job unchanged — a client
        retrying a request it never saw the response to attaches to the
        original execution instead of admitting a duplicate.
        """
        self.start()
        with self._available:
            if self._closed:
                raise ServiceError("scheduler is closed")
            existing = self._keyed_job_locked(idempotency_key)
            if existing is not None:
                logger.info(
                    "idempotency key %s re-attached to job %s",
                    idempotency_key,
                    existing.job_id,
                )
                return existing
            if self._draining:
                remaining = (
                    max(0.0, self._drain_deadline - self._clock())
                    if self._drain_deadline is not None
                    else 0.0
                )
                raise AdmissionError(
                    "service is draining for shutdown; retry against the "
                    "restarted instance",
                    retry_after=max(1.0, remaining),
                )
            if self._queued >= self.max_queue_depth:
                self._m_rejected.inc()
                logger.warning(
                    "rejecting submission: queue saturated (%d queued, limit %d)",
                    self._queued,
                    self.max_queue_depth,
                )
                raise AdmissionError(
                    f"queue saturated ({self._queued} queued, "
                    f"limit {self.max_queue_depth}); retry later"
                )
            job = Job(
                job_id=uuid.uuid4().hex[:12],
                statement=statement,
                priority=priority,
                budget=budget,
                trace=trace,
                submitted_at=self._clock(),
                idempotency_key=idempotency_key,
            )
            self._jobs[job.job_id] = job
            if idempotency_key:
                self._idempotency[idempotency_key] = job.job_id
            heapq.heappush(self._heap, (-priority, next(self._counter), job.job_id))
            self._queued += 1
            self._m_admitted.inc()
            self._journal_safe(
                # The journal stores trace as a bool: a distributed
                # parent context does not survive a restart (the remote
                # caller is gone), so a recovered job re-runs with local
                # tracing only.
                lambda: self._journal.record_admitted(
                    job.job_id,
                    statement,
                    priority=priority,
                    budget=budget,
                    trace=bool(trace),
                    idempotency_key=idempotency_key,
                    canonical_key=canonical_key,
                    submitted_at=job.submitted_at,
                ),
                f"admit {job.job_id}",
            )
            logger.info(
                "job %s admitted (priority=%d, %d queued)",
                job.job_id,
                priority,
                self._queued,
            )
            self._m_queue_depth.set(self._queued)
            self._available.notify()
            return job

    def _keyed_job_locked(self, idempotency_key: Optional[str]) -> Optional[Job]:
        """The retained job an idempotency key belongs to, if any."""
        if not idempotency_key:
            return None
        job_id = self._idempotency.get(idempotency_key)
        return self._jobs.get(job_id) if job_id else None

    def accepts_new(self, idempotency_key: Optional[str] = None) -> bool:
        """Whether :meth:`submit` would create a new job right now.

        False while closed or draining (``submit`` raises) and for an
        idempotency key this scheduler already knows (``submit``
        re-attaches to that job).
        """
        with self._lock:
            if self._closed or self._draining:
                return False
            return self._keyed_job_locked(idempotency_key) is None

    def record_hit(
        self,
        statement: str,
        result: Dict,
        submitted_at: float,
        priority: int = 0,
        budget: Optional[RunBudget] = None,
        idempotency_key: Optional[str] = None,
    ) -> Job:
        """Keep a result-cache hit the caller answered without queueing it.

        The job is counted as admitted and done and stays pollable and
        idempotency-keyed like any other, but it is never queued, never
        handed to a worker and never journaled: it changed no durable
        state, so a restart forgets it.  ``on_finished`` runs on the
        calling thread.  When a racing request claimed the same
        idempotency key first, that job is returned instead.
        """
        with self._available:
            existing = self._keyed_job_locked(idempotency_key)
            if existing is not None:
                return existing
            job = Job(
                job_id=uuid.uuid4().hex[:12],
                statement=statement,
                priority=priority,
                budget=budget,
                submitted_at=submitted_at,
                started_at=submitted_at,
                result=result,
                cached=True,
                idempotency_key=idempotency_key,
            )
            self._jobs[job.job_id] = job
            if idempotency_key:
                self._idempotency[idempotency_key] = job.job_id
            self._m_admitted.inc()
            self._call_on_finished(job, DONE)
            self._finish_locked(job, DONE, journal=False)
            return job

    def resubmit(self, record: JournalRecord) -> Job:
        """Re-admit one recovered journal record (restart recovery).

        Bypasses admission control — a job the journal says we owe is a
        promise already made; queue-depth limits apply to *new* work.
        The journal row is rewritten as ``queued`` with its attempt
        counter preserved, so the crash-loop cap survives restarts.
        """
        with self._available:
            if self._closed:
                raise ServiceError("scheduler is closed")
            job = Job(
                job_id=record.job_id,
                statement=record.statement,
                priority=record.priority,
                budget=record.budget,
                trace=record.trace,
                submitted_at=record.submitted_at,
                idempotency_key=record.idempotency_key,
                attempts=record.attempts,
                recovered=True,
            )
            self._jobs[job.job_id] = job
            if record.idempotency_key:
                self._idempotency[record.idempotency_key] = job.job_id
            heapq.heappush(
                self._heap, (-record.priority, next(self._counter), job.job_id)
            )
            self._queued += 1
            self._m_resubmitted.inc()
            self._journal_safe(
                lambda: self._journal.record_admitted(
                    record.job_id,
                    record.statement,
                    priority=record.priority,
                    budget=record.budget,
                    trace=record.trace,
                    idempotency_key=record.idempotency_key,
                    canonical_key=record.canonical_key,
                    submitted_at=record.submitted_at,
                    attempts=record.attempts,
                ),
                f"re-admit {record.job_id}",
            )
            logger.info(
                "job %s re-admitted from journal (attempt %d)",
                job.job_id,
                record.attempts + 1,
            )
            self._m_queue_depth.set(self._queued)
            self._available.notify()
            return job

    def restore_terminal(self, record: JournalRecord) -> Job:
        """Rebuild one terminal job record from the journal (no re-run).

        A restarted service keeps serving ``GET /v1/jobs/{id}`` for jobs
        that finished before the crash — results included.
        """
        with self._lock:
            job = Job(
                job_id=record.job_id,
                statement=record.statement,
                priority=record.priority,
                budget=record.budget,
                trace=record.trace,
                state=record.state,
                submitted_at=record.submitted_at,
                started_at=record.started_at,
                finished_at=record.finished_at,
                result=record.result,
                error=record.error,
                idempotency_key=record.idempotency_key,
                attempts=record.attempts,
                recovered=True,
            )
            job._done.set()
            self._jobs[job.job_id] = job
            if record.idempotency_key:
                self._idempotency[record.idempotency_key] = job.job_id
            self._finished_order.append(job.job_id)
            self._trim_history_locked()
            return job

    def get(self, job_id: str) -> Job:
        """The job with ``job_id`` (raises :class:`JobNotFoundError`)."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no such job: {job_id!r}")
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: dequeue it, or trip its token mid-run.

        Idempotent on already-terminal jobs (returns the record as-is).
        """
        with self._available:
            job = self._jobs.get(job_id)
            if job is None:
                raise JobNotFoundError(f"no such job: {job_id!r}")
            if job.state in TERMINAL_STATES:
                return job
            job.cancel_requested = True
            job.token.cancel()
            if job.state == QUEUED:
                # Lazy heap removal: the worker loop skips cancelled ids,
                # so the admission counter must be released here — the
                # skip path in _next_job deliberately never decrements.
                self._queued -= 1
                self._m_queue_depth.set(self._queued)
                self._finish_locked(job, CANCELLED, error="cancelled while queued")
        return job

    def stats(self) -> Dict[str, object]:
        """Queue/worker/state counters for ``GET /v1/status``."""
        with self._lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "workers": self.workers,
                "queue_depth": self._queued,
                "max_queue_depth": self.max_queue_depth,
                "running": self._running,
                "draining": self._draining,
                "jobs": states,
            }

    # ------------------------------------------------------------------
    # worker internals
    # ------------------------------------------------------------------

    def _next_job(self) -> Optional[Job]:
        with self._available:
            while True:
                if self._closed or self._draining:
                    # Draining: idle workers exit instead of picking up
                    # queued work — those jobs stay journaled ``queued``
                    # and run on the next boot.
                    return None
                while self._heap:
                    _, _, job_id = heapq.heappop(self._heap)
                    job = self._jobs.get(job_id)
                    if job is None or job.state != QUEUED:
                        continue  # cancelled while queued (lazy removal)
                    self._queued -= 1
                    self._running += 1
                    job.state = RUNNING
                    job.started_at = self._clock()
                    job.attempts += 1
                    self._journal_safe(
                        lambda: self._journal.record_running(
                            job.job_id, started_at=job.started_at
                        ),
                        f"start {job.job_id}",
                    )
                    self._m_queue_depth.set(self._queued)
                    self._m_running.set(self._running)
                    self._m_wait.observe(max(0.0, job.started_at - job.submitted_at))
                    return job
                self._available.wait(timeout=0.1)

    def _terminal_state_for(self, job: Job) -> str:
        # A user cancel wins over a drain interrupt: cancelled is
        # durable ("never run this again"), interrupted is not ("finish
        # this on the next boot").
        if job.cancel_requested:
            return CANCELLED
        if job.interrupted:
            return INTERRUPTED
        return DONE

    def _worker_loop(self) -> None:
        while True:
            job = self._next_job()
            if job is None:
                return
            try:
                result, cached, plan = self._execute(
                    job.statement, job.token, job.budget, job.trace
                )
                if self._abandoned:
                    return  # simulated process death: record nothing
                with self._available:
                    self._running -= 1
                    self._m_running.set(self._running)
                    job.result = result
                    job.cached = cached
                    job.plan = plan
                    # A cancel/interrupt that landed mid-run surfaces as
                    # a sound partial result on the job record — it
                    # keeps what the run managed to compute.
                    state = self._terminal_state_for(job)
                    self._call_on_finished(job, state)
                    self._finish_locked(job, state)
            except SimulatedCrash as error:
                # Chaos seam: the fault emulates the worker thread dying
                # mid-job (segfault/OOM analogue).  No transition is
                # recorded — the job stays RUNNING, orphaned exactly the
                # way a real crash orphans it; only restart recovery
                # (or this process's own recovery sweep) can reclaim it.
                logger.error(
                    "job %s worker crashed: %s (thread dies, job orphaned)",
                    job.job_id,
                    error,
                )
                with self._lock:
                    self._running -= 1
                    self._m_running.set(self._running)
                return
            except BaseException as error:  # noqa: BLE001 — job isolation
                if self._abandoned:
                    return
                logger.warning(
                    "job %s failed: %s: %s", job.job_id, type(error).__name__, error
                )
                with self._available:
                    self._running -= 1
                    self._m_running.set(self._running)
                    state = self._terminal_state_for(job)
                    if state == DONE:
                        state = FAILED
                    self._call_on_finished(job, state)
                    self._finish_locked(job, state, error=f"{type(error).__name__}: {error}")

    def _call_on_finished(self, job: Job, state: str) -> None:
        """Run the on_finished hook; its failures never fail the job.

        Called with the scheduler lock held, deliberately *before*
        :meth:`_finish_locked` sets the job's done event: whatever the
        hook attaches (resource attribution, the trace id) is visible to
        every waiter and every rendering of the record.
        """
        if self.on_finished is None:
            return
        try:
            self.on_finished(job, state)
        except Exception as error:  # noqa: BLE001 — observability only
            logger.warning(
                "on_finished hook failed for job %s: %s: %s",
                job.job_id,
                type(error).__name__,
                error,
            )

    def _finish_locked(
        self,
        job: Job,
        state: str,
        error: Optional[str] = None,
        journal: bool = True,
    ) -> None:
        job.state = state
        job.error = error if error is not None else job.error
        job.finished_at = self._clock()
        self._m_jobs.inc(state=state)
        if journal:
            self._journal_safe(
                lambda: self._journal.record_finished(
                    job.job_id,
                    state,
                    error=job.error,
                    result=job.result,
                    finished_at=job.finished_at,
                ),
                f"finish {job.job_id}",
            )
        logger.info("job %s finished: %s", job.job_id, state)
        if job.started_at is not None:
            self._m_run.observe(max(0.0, job.finished_at - job.started_at))
        job._done.set()
        self._finished_order.append(job.job_id)
        self._trim_history_locked()

    def _trim_history_locked(self) -> None:
        while len(self._finished_order) > self.history_limit:
            stale_id = self._finished_order.pop(0)
            stale = self._jobs.get(stale_id)
            if stale is not None and stale.state in TERMINAL_STATES:
                del self._jobs[stale_id]
                if stale.idempotency_key:
                    self._idempotency.pop(stale.idempotency_key, None)
