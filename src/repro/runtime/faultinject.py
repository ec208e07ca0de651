"""Deterministic fault injection for the store and the mining loops.

Chaos testing only earns its keep when failures are *reproducible*, so
every injector here is driven by an explicit plan (or a seed that
expands into one) rather than ambient randomness:

* :class:`DbFaultPlan` + :class:`FlakyConnection` — make chosen
  statement executions against the SQLite store raise
  ``sqlite3.OperationalError: database is locked``, exercising the
  retry-with-backoff layer end to end.
* :class:`GranuleFaults` — a :attr:`RunMonitor.granule_hook
  <repro.runtime.budget.RunMonitor.granule_hook>` that slows chosen
  granules (deadline pressure) and/or cancels the run's token at a
  chosen tick (mid-pass cancellation), exercising graceful degradation
  in the counting loops.
* :class:`WorkerFaultPlan` — makes chosen shard dispatches of the
  parallel executor fail (raised error or killed worker process),
  exercising its degrade-to-serial path.

Use :func:`inject_db_faults` to splice a flaky connection into a live
:class:`~repro.db.sqlite_store.SqliteStore`.
"""

from __future__ import annotations

import random
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional

from repro.errors import MiningParameterError
from repro.runtime.budget import CancellationToken

_LOCKED = "database is locked"


class SimulatedCrash(BaseException):
    """Deterministic stand-in for a worker-thread death or process kill.

    Deliberately derives from :class:`BaseException`, not
    :class:`Exception`: the service scheduler's job-isolation handler
    catches ordinary errors and journals the job as *failed*, but a
    crash must leave the job **orphaned in the running state** — exactly
    what a ``kill -9`` leaves behind — so the journal recovery path can
    be exercised.  The scheduler lets this exception terminate the
    worker thread without recording any lifecycle transition.
    """


@dataclass(frozen=True)
class DbFaultPlan:
    """Which store operations fail, by 1-based execution index.

    Attributes:
        fail_ops: indices of ``execute``/``executemany`` calls (counted
            from the moment of injection) that raise.
        error_message: the operational error text to raise with.
    """

    fail_ops: FrozenSet[int] = frozenset()
    error_message: str = _LOCKED

    @classmethod
    def first(cls, n: int, error_message: str = _LOCKED) -> "DbFaultPlan":
        """Fail the first ``n`` operations, then behave normally."""
        return cls(fail_ops=frozenset(range(1, n + 1)), error_message=error_message)

    @classmethod
    def seeded(
        cls, seed: int, n_ops: int, fail_rate: float, error_message: str = _LOCKED
    ) -> "DbFaultPlan":
        """A reproducible random plan over the next ``n_ops`` operations."""
        if not 0.0 <= fail_rate <= 1.0:
            raise MiningParameterError("fail_rate must be in [0, 1]")
        rng = random.Random(seed)
        chosen = frozenset(
            index for index in range(1, n_ops + 1) if rng.random() < fail_rate
        )
        return cls(fail_ops=chosen, error_message=error_message)

    def should_fail(self, op_index: int) -> bool:
        return op_index in self.fail_ops


class FlakyConnection:
    """A proxy over ``sqlite3.Connection`` that fails per a fault plan.

    Counts ``execute``/``executemany``/``executescript`` calls and
    raises ``sqlite3.OperationalError`` on the planned indices *instead
    of* running the statement (SQLite acquires its lock before applying
    anything, so a locked error never half-applies a statement — the
    proxy mirrors that).  Everything else (``commit``, ``close``,
    attribute access) passes through.

    Attributes:
        op_count: operations attempted so far.
        failures_injected: how many were made to fail.
    """

    def __init__(self, connection: sqlite3.Connection, plan: DbFaultPlan):
        self._connection = connection
        self._plan = plan
        self.op_count = 0
        self.failures_injected = 0

    def _maybe_fail(self) -> None:
        self.op_count += 1
        if self._plan.should_fail(self.op_count):
            self.failures_injected += 1
            raise sqlite3.OperationalError(self._plan.error_message)

    def execute(self, *args, **kwargs):
        self._maybe_fail()
        return self._connection.execute(*args, **kwargs)

    def executemany(self, *args, **kwargs):
        self._maybe_fail()
        return self._connection.executemany(*args, **kwargs)

    def executescript(self, *args, **kwargs):
        self._maybe_fail()
        return self._connection.executescript(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._connection, name)


def inject_db_faults(store, plan: DbFaultPlan) -> FlakyConnection:
    """Splice a :class:`FlakyConnection` into a live store.

    Returns the proxy so tests can assert on ``failures_injected``.  The
    store's retry layer sees the injected errors exactly as it would see
    real writer contention.
    """
    flaky = FlakyConnection(store.connection, plan)
    store._connection = flaky
    return flaky


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Which parallel shard dispatches fail, by 1-based dispatch index.

    Handed to a :class:`~repro.parallel.executor.ShardedExecutor`, which
    counts every shard task it submits across the whole run; tasks whose
    dispatch index is in ``fail_shards`` carry the fault marker and the
    worker either raises (``kind="error"``) or hard-exits its process
    (``kind="kill"``, surfacing as a broken pool).  Either way the
    executor must degrade to serial with a diagnostic — the chaos suite
    asserts exactly that.

    Attributes:
        fail_shards: dispatch indices (1-based, global) that fault.
        kind: ``"error"`` or ``"kill"``.
    """

    fail_shards: FrozenSet[int] = frozenset()
    kind: str = "error"

    def __post_init__(self) -> None:
        if self.kind not in ("error", "kill"):
            raise MiningParameterError(
                f'worker fault kind must be "error" or "kill", got {self.kind!r}'
            )

    @classmethod
    def first(cls, n: int, kind: str = "error") -> "WorkerFaultPlan":
        """Fault the first ``n`` shard dispatches, then behave normally."""
        return cls(fail_shards=frozenset(range(1, n + 1)), kind=kind)

    def fault_for(self, dispatch_index: int) -> Optional[str]:
        """The fault marker for one dispatch (``None`` = healthy)."""
        return self.kind if dispatch_index in self.fail_shards else None


@dataclass
class GranuleFaults:
    """A granule hook injecting slowness and mid-pass cancellation.

    Plug an instance into a :class:`~repro.runtime.budget.RunMonitor`
    (``monitor.granule_hook = faults``) or pass it via the miner's
    ``granule_hook`` parameter.  Ticks are counted globally across
    passes, so ``cancel_at_tick`` can land in the middle of any pass.

    Attributes:
        slow_ticks: tick index (1-based) → extra seconds to stall.
        cancel_at_tick: cancel ``token`` when this tick is reached.
        crash_at_tick: raise :class:`SimulatedCrash` at this tick —
            the service-tier chaos seam for killing a worker thread
            mid-job (the job is left orphaned in the running state).
        token: the run's cancellation token (required for cancellation).
        sleeper: injectable stall function (tests pass a recorder or a
            fake-clock advancer instead of really sleeping).
    """

    slow_ticks: Dict[int, float] = field(default_factory=dict)
    cancel_at_tick: Optional[int] = None
    crash_at_tick: Optional[int] = None
    token: Optional[CancellationToken] = None
    sleeper: Callable[[float], None] = time.sleep
    ticks_seen: int = 0
    offsets_seen: List[int] = field(default_factory=list)

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_ticks: int,
        slow_rate: float,
        stall_seconds: float,
        token: Optional[CancellationToken] = None,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> "GranuleFaults":
        """A reproducible plan slowing a random subset of granules."""
        rng = random.Random(seed)
        slow = {
            tick: stall_seconds
            for tick in range(1, n_ticks + 1)
            if rng.random() < slow_rate
        }
        return cls(slow_ticks=slow, token=token, sleeper=sleeper)

    def __call__(self, offset: int) -> None:
        self.ticks_seen += 1
        self.offsets_seen.append(offset)
        stall = self.slow_ticks.get(self.ticks_seen)
        if stall:
            self.sleeper(stall)
        if (
            self.cancel_at_tick is not None
            and self.ticks_seen >= self.cancel_at_tick
            and self.token is not None
        ):
            self.token.cancel()
        if self.crash_at_tick is not None and self.ticks_seen == self.crash_at_tick:
            raise SimulatedCrash(
                f"injected worker crash at granule tick {self.ticks_seen}"
            )
