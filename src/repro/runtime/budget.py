"""Run budgets, cooperative cancellation and run diagnostics.

A production mining service cannot run open-loop: a badly chosen
``min_support`` on a large database blows up candidate generation with
nothing to show for the wasted work.  This module provides the three
pieces that keep the IQMI interactive loop responsive:

* :class:`RunBudget` — declarative limits on one mining run (wall-clock
  deadline, candidate count, rule count) plus the strict/partial policy.
* :class:`CancellationToken` — a thread-safe flag the REPL (or any
  controller) sets to ask the current run to stop at the next safe
  boundary.
* :class:`RunMonitor` — the per-run accountant the hot loops consult.
  Checks are *cooperative*: counting loops call
  :meth:`RunMonitor.tick_granules` with the time units (granules) a
  pass scans and :meth:`RunMonitor.checkpoint` at pass boundaries, so a
  run always stops at a granule/pass boundary with exact partial counts.

Budget exhaustion and cancellation travel through the mining code as the
internal :class:`RunInterrupted` control-flow exception; task drivers
catch it, discard any half-counted pass, and return a
:class:`~repro.mining.results.MiningReport` flagged ``partial=True``
with the :class:`RunDiagnostics` the monitor accumulated.  Callers that
prefer exceptions opt in with ``RunBudget(strict=True)``, which converts
the partial outcome into :class:`~repro.errors.BudgetExceededError` /
:class:`~repro.errors.MiningCancelledError`.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Iterable, Optional

from repro.errors import (
    BudgetExceededError,
    MiningCancelledError,
    MiningParameterError,
)
from repro.obs.metrics import MetricsRegistry, default_registry

#: Stop reasons recorded by :class:`RunMonitor`.
STOP_CANCELLED = "cancelled"
STOP_DEADLINE = "deadline"
STOP_MAX_CANDIDATES = "max_candidates"
STOP_MAX_RULES = "max_rules"


class RunInterrupted(Exception):
    """Internal control flow: the current run must stop *now*.

    Not part of the public error taxonomy — mining drivers catch it at
    granule/pass boundaries and translate it into a partial report (or a
    typed error in strict mode).  It deliberately does not derive from
    :class:`~repro.errors.ReproError` so it can never leak to callers
    through a ``except ReproError`` handler.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class RunBudget:
    """Limits for one mining run; ``None`` means unlimited.

    Attributes:
        max_seconds: wall-clock deadline for the run.
        max_candidates: total candidate itemsets generated across passes.
        max_rules: total findings emitted.
        strict: raise :class:`~repro.errors.BudgetExceededError` /
            :class:`~repro.errors.MiningCancelledError` instead of
            returning a partial report.
    """

    max_seconds: Optional[float] = None
    max_candidates: Optional[int] = None
    max_rules: Optional[int] = None
    strict: bool = False

    def __post_init__(self) -> None:
        # JSON admits NaN and Infinity, and bool is an int subclass:
        # neither may slip through as a limit that never binds (or as a
        # one-second deadline).  A journaled budget is rebuilt through
        # here too, so replay applies the same check.
        seconds = self.max_seconds
        if seconds is not None and (
            isinstance(seconds, bool)
            or not isinstance(seconds, Real)
            or not math.isfinite(seconds)
            or seconds <= 0
        ):
            raise MiningParameterError(
                f"max_seconds must be a finite number > 0, got {seconds!r}"
            )
        for name in ("max_candidates", "max_rules"):
            value = getattr(self, name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int) or value < 1
            ):
                raise MiningParameterError(
                    f"{name} must be an integer >= 1, got {value!r}"
                )

    def is_unlimited(self) -> bool:
        return (
            self.max_seconds is None
            and self.max_candidates is None
            and self.max_rules is None
        )

    def to_dict(self) -> dict:
        """The JSON-able spec (the HTTP API's ``budget`` object shape).

        Round-trips through :meth:`from_dict`; the service journal
        persists budgets in this form so a recovered job re-runs under
        the exact limits it was submitted with.
        """
        spec: dict = {}
        if self.max_seconds is not None:
            spec["time"] = self.max_seconds
        if self.max_candidates is not None:
            spec["candidates"] = self.max_candidates
        if self.max_rules is not None:
            spec["rules"] = self.max_rules
        if self.strict:
            spec["strict"] = True
        return spec

    @classmethod
    def from_dict(cls, spec: Optional[dict]) -> Optional["RunBudget"]:
        """Rebuild a budget from its :meth:`to_dict` spec (``None`` passes)."""
        if not spec:
            return None
        return cls(
            max_seconds=spec.get("time"),
            max_candidates=spec.get("candidates"),
            max_rules=spec.get("rules"),
            strict=bool(spec.get("strict", False)),
        )

    def describe(self) -> str:
        parts = []
        if self.max_seconds is not None:
            parts.append(f"time<={self.max_seconds:g}s")
        if self.max_candidates is not None:
            parts.append(f"candidates<={self.max_candidates}")
        if self.max_rules is not None:
            parts.append(f"rules<={self.max_rules}")
        if not parts:
            parts.append("unlimited")
        if self.strict:
            parts.append("strict")
        return ", ".join(parts)


class CancellationToken:
    """A thread-safe cooperative cancellation flag.

    The controller (REPL signal handler, another thread) calls
    :meth:`cancel`; the mining loops observe it at their next granule or
    pass boundary.  Tokens are reusable across runs via :meth:`reset`.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent, safe from any thread)."""
        self._event.set()

    def reset(self) -> None:
        """Clear the flag so the token can guard a new run."""
        self._event.clear()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:
        return f"CancellationToken(cancelled={self.cancelled})"


@dataclass(frozen=True)
class RunDiagnostics:
    """What one (possibly partial) mining run actually did.

    Attributes:
        stop_reason: ``None`` for a completed run, otherwise one of
            ``"cancelled"``, ``"deadline"``, ``"max_candidates"``,
            ``"max_rules"``.
        passes_completed: level-wise passes that ran to completion (their
            counts are exact; an interrupted pass is discarded).
        granules_covered: time units (granules) scanned.
        candidates_generated: candidate itemsets generated.
        rules_emitted: findings emitted before stopping.
        elapsed_seconds: wall-clock time consumed.
        budget: the budget the run was charged against.
    """

    stop_reason: Optional[str]
    passes_completed: int
    granules_covered: int
    candidates_generated: int
    rules_emitted: int
    elapsed_seconds: float
    budget: RunBudget

    @property
    def completed(self) -> bool:
        return self.stop_reason is None

    def describe(self) -> str:
        status = "completed" if self.completed else f"stopped ({self.stop_reason})"
        return (
            f"{status}: {self.passes_completed} pass(es), "
            f"{self.granules_covered} granule(s), "
            f"{self.candidates_generated} candidate(s), "
            f"{self.rules_emitted} rule(s) in {self.elapsed_seconds:.3f}s "
            f"[budget: {self.budget.describe()}]"
        )


class RunMonitor:
    """Per-run accountant consulted by the mining hot loops.

    Every mining run has one: an entry point called without a monitor
    makes a plain ``RunMonitor()``, which never stops the run and only
    counts what it did, so one accounting path runs in every layer.

    A monitor belongs to the thread that runs its mine, and nothing in
    it is locked.  Other threads signal a run only through its
    :class:`CancellationToken`, which every checkpoint polls.  The loops
    call the charge/tick methods, which raise :class:`RunInterrupted`
    the moment the budget is exhausted or the token is cancelled;
    drivers catch it at a safe boundary.  A ``clock`` can be injected
    for deterministic tests, and ``granule_hook`` is the seam the
    fault-injection harness uses to simulate slow granules or mid-pass
    cancellation.
    """

    __slots__ = (
        "budget",
        "token",
        "granule_hook",
        "trace",
        "_clock",
        "_started",
        "_deadline",
        "_passes",
        "_granules",
        "_candidates",
        "_rules",
        "_stop_reason",
        "_metrics",
        "_flushed_passes",
        "_flushed_granules",
        "_flushed_candidates",
        "_flushed_rules",
    )

    def __init__(
        self,
        budget: Optional[RunBudget] = None,
        token: Optional[CancellationToken] = None,
        clock: Callable[[], float] = time.monotonic,
        granule_hook: Optional[Callable[[int], None]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.budget = budget if budget is not None else RunBudget()
        self.token = token
        self.granule_hook = granule_hook
        #: Optional :class:`~repro.obs.trace.Tracer` riding on the run —
        #: the monitor is the one per-run object every hot loop already
        #: threads through, so the tracer travels on it (see
        #: :func:`repro.obs.trace.tracer_of`).
        self.trace = None
        self._clock = clock
        self._started = clock()
        self._deadline = (
            self._started + self.budget.max_seconds
            if self.budget.max_seconds is not None
            else None
        )
        self._passes = 0
        self._granules = 0
        self._candidates = 0
        self._rules = 0
        self._stop_reason: Optional[str] = None
        # Registry counters are flushed as *deltas* at pass boundaries
        # (and at diagnostics()), never per granule — the hot loops pay
        # zero registry locking.
        self._metrics = metrics if metrics is not None else default_registry()
        self._flushed_passes = 0
        self._flushed_granules = 0
        self._flushed_candidates = 0
        self._flushed_rules = 0

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    @property
    def stopped(self) -> bool:
        return self._stop_reason is not None

    @property
    def stop_reason(self) -> Optional[str]:
        return self._stop_reason

    def elapsed(self) -> float:
        return self._clock() - self._started

    @property
    def deadline(self) -> Optional[float]:
        """The absolute wall-clock deadline (monitor clock), or ``None``.

        Retry layers pass this to
        :func:`repro.runtime.retry.retry_call` so backoff sleeps are
        clamped to the run budget and can never overshoot it.
        """
        return self._deadline

    # ------------------------------------------------------------------
    # charging (called from the hot loops)
    # ------------------------------------------------------------------

    def _stop(self, reason: str) -> "RunInterrupted":
        if self._stop_reason is None:
            self._stop_reason = reason
            self._metrics.counter(
                "repro_mining_stops_total",
                "Mining runs stopped early, by stop reason.",
                labelnames=("reason",),
            ).inc(reason=reason)
        return RunInterrupted(self._stop_reason)

    def checkpoint(self) -> None:
        """Check deadline and cancellation; raise to stop the run."""
        if self._stop_reason is not None:
            raise RunInterrupted(self._stop_reason)
        if self.token is not None and self.token.cancelled:
            raise self._stop(STOP_CANCELLED)
        if self._deadline is not None and self._clock() > self._deadline:
            raise self._stop(STOP_DEADLINE)

    def tick_granules(self, offsets: Iterable[int]) -> None:
        """Account scanned time units one at a time, checkpointing each.

        For every unit the fault-injection hook runs first, so an
        injected fault (a slow granule, a mid-pass cancel) is observed
        by that unit's own check; a stop mid-range has still counted
        the units covered up to and including the one it stopped at.
        """
        hook = self.granule_hook
        for offset in offsets:
            if hook is not None:
                hook(offset)
            self._granules += 1
            self.checkpoint()

    def charge_candidates(self, n: int) -> None:
        """Account ``n`` generated candidates; stop when over budget."""
        self._candidates += n
        limit = self.budget.max_candidates
        if limit is not None and self._candidates > limit:
            raise self._stop(STOP_MAX_CANDIDATES)
        self.checkpoint()

    def charge_rule(self) -> None:
        """Account one finding about to be emitted; stop at the cap.

        Called *before* appending, so a run budgeted for N rules emits
        exactly N.
        """
        limit = self.budget.max_rules
        if limit is not None and self._rules >= limit:
            raise self._stop(STOP_MAX_RULES)
        self._rules += 1

    def complete_pass(self) -> None:
        """Mark one level-wise pass as fully counted."""
        self._passes += 1
        self._flush_metrics()

    def _flush_metrics(self) -> None:
        """Push accumulated deltas into the registry."""
        registry = self._metrics
        delta = self._passes - self._flushed_passes
        if delta:
            registry.counter(
                "repro_mining_passes_total",
                "Completed level-wise mining passes.",
            ).inc(delta)
            self._flushed_passes = self._passes
        delta = self._granules - self._flushed_granules
        if delta:
            registry.counter(
                "repro_mining_granules_total",
                "Time units (granules) scanned by mining passes.",
            ).inc(delta)
            self._flushed_granules = self._granules
        delta = self._candidates - self._flushed_candidates
        if delta:
            registry.counter(
                "repro_mining_candidates_total",
                "Candidate itemsets generated across passes.",
            ).inc(delta)
            self._flushed_candidates = self._candidates
        delta = self._rules - self._flushed_rules
        if delta:
            registry.counter(
                "repro_mining_rules_total",
                "Findings emitted by mining runs.",
            ).inc(delta)
            self._flushed_rules = self._rules

    # ------------------------------------------------------------------
    # outcome
    # ------------------------------------------------------------------

    def diagnostics(self) -> RunDiagnostics:
        # End-of-run flush: rules emitted after the last pass (and an
        # interrupted run's tail) still reach the registry.
        self._flush_metrics()
        return RunDiagnostics(
            stop_reason=self._stop_reason,
            passes_completed=self._passes,
            granules_covered=self._granules,
            candidates_generated=self._candidates,
            rules_emitted=self._rules,
            elapsed_seconds=self.elapsed(),
            budget=self.budget,
        )

    def raise_for_strict(self) -> None:
        """In strict mode, convert a stopped run into a typed error."""
        if self._stop_reason is None or not self.budget.strict:
            return
        diagnostics = self.diagnostics()
        if self._stop_reason == STOP_CANCELLED:
            raise MiningCancelledError(
                f"mining run cancelled ({diagnostics.describe()})",
                diagnostics=diagnostics,
            )
        raise BudgetExceededError(
            f"mining budget exhausted: {self._stop_reason} "
            f"({diagnostics.describe()})",
            diagnostics=diagnostics,
        )
