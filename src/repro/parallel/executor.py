"""The sharded process-pool executor for per-unit counting passes.

:class:`ShardedExecutor` is the count-distribution layer (in the sense
of the classic parallel-Apriori taxonomy): every Apriori pass partitions
the encoded database into contiguous time-unit shards
(:mod:`repro.parallel.sharding`), fans candidate counting out to a
``ProcessPoolExecutor``, and merges the per-shard support matrices back
in shard order — a deterministic merge, so the combined counts are
bit-identical to the serial scan regardless of which worker finishes
first.

Resilience contract:

* **Budgets/cancellation** — the parent checkpoints the run monitor as
  shard results arrive and ticks every shard's granules in shard order
  (:meth:`~repro.runtime.budget.RunMonitor.tick_granules`) before
  merging; a stop drains the in-flight futures and re-raises
  :class:`~repro.runtime.budget.RunInterrupted`, so the caller discards
  the pass and returns the same sound pass-boundary partials a serial
  run would.
* **Worker failure** — a crashed or faulting worker permanently
  degrades the executor to serial (``degraded_reason`` is set and a
  warning emitted); every counting entry point then returns ``None``
  and the caller re-counts the pass serially.  No partial parallel
  counts ever leak into results.

All entry points return ``None`` whenever the parallel path should not
(or can no longer) run — callers treat ``None`` as "count serially".
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import wait as wait_futures
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.columnar.backends import Candidates
from repro.errors import MiningParameterError
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.trace import tracer_of
from repro.parallel import worker
from repro.parallel.sharding import ShardSpec, plan_shards
from repro.runtime.budget import RunInterrupted, RunMonitor

_token_counter = itertools.count(1)

logger = get_logger(__name__)


def _start_method() -> str:
    """Prefer fork (pickle-free inheritance of the CSR arrays)."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


class ShardedExecutor:
    """Shard-parallel counting over one or more encoded databases.

    One executor serves a whole mining session: it lazily creates its
    process pool, re-creating it only when a previously unseen encoded
    database is attached (the fork-inheritance path ships the CSR
    columns to workers at fork time, without pickling).  Pass
    ``workers=1`` for a no-op executor that always defers to the serial
    path — handy for differential testing.

    Attributes:
        workers: requested pool size.
        degraded_reason: ``None`` while healthy; once a worker fails,
            the failure description (all later passes run serially).
        fault_plan: optional deterministic worker-fault injection (see
            :class:`~repro.runtime.faultinject.WorkerFaultPlan`).
    """

    def __init__(
        self,
        workers: int,
        fault_plan=None,
        start_method: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if workers < 1:
            raise MiningParameterError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.fault_plan = fault_plan
        self.degraded_reason: Optional[str] = None
        self._start_method = start_method or _start_method()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._tokens: Dict[int, str] = {}
        self._retained: list = []  # strong refs keep id() keys stable
        self._pool_tokens: frozenset = frozenset()
        self._dispatched = 0
        #: Wall-clock accounting for the benchmark suite.
        self.stats: Dict[str, float] = {"parallel_passes": 0.0, "merge_seconds": 0.0}
        self._metrics = metrics if metrics is not None else default_registry()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        return self.degraded_reason is not None

    def effective(self) -> bool:
        """True when parallel passes are currently possible."""
        return self.workers >= 2 and not self.degraded

    def close(self) -> None:
        """Shut the pool down and drop every registration (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for token in self._tokens.values():
            worker.unregister_encoded(token)
        self._tokens.clear()
        self._retained.clear()
        self._pool_tokens = frozenset()

    def reset(self) -> None:
        """Forget attached databases (call after the data mutates)."""
        self.close()

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # pool / registration plumbing
    # ------------------------------------------------------------------

    def _attach(self, encoded) -> str:
        token = self._tokens.get(id(encoded))
        if token is None:
            token = f"enc-{os.getpid()}-{next(_token_counter)}"
            worker.register_encoded(
                token, encoded.item_ids, encoded.offsets, encoded.n_items
            )
            self._tokens[id(encoded)] = token
            self._retained.append(encoded)
        return token

    def _ensure_pool(self) -> ProcessPoolExecutor:
        tokens = frozenset(self._tokens.values())
        if self._pool is not None and tokens <= self._pool_tokens:
            return self._pool
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        context = multiprocessing.get_context(self._start_method)
        if self._start_method == "fork":
            # Children inherit the registry copy-on-write: zero-copy,
            # pickle-free access to the CSR columns.
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context
            )
        else:
            # No fork: ship a registry snapshot once per worker process.
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=worker.init_worker,
                initargs=(worker.registry_snapshot(),),
            )
        self._pool_tokens = tokens
        return self._pool

    def _next_fault(self) -> Optional[str]:
        self._dispatched += 1
        if self.fault_plan is not None:
            return self.fault_plan.fault_for(self._dispatched)
        return None

    def _degrade(self, error: BaseException) -> None:
        reason = f"{type(error).__name__}: {error}"
        self.degraded_reason = reason
        self._metrics.counter(
            "repro_parallel_degrades_total",
            "Worker failures that degraded the executor to serial.",
        ).inc()
        logger.warning(
            "parallel executor degraded to serial after a worker failure "
            "(%s); re-counting the pass serially",
            reason,
        )
        warnings.warn(
            f"parallel executor degraded to serial after a worker failure "
            f"({reason}); re-counting the pass serially",
            RuntimeWarning,
            stacklevel=3,
        )
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_tokens = frozenset()

    @staticmethod
    def _drain(futures: Sequence[Future]) -> None:
        """Cancel what has not started and wait out what has."""
        for future in futures:
            future.cancel()
        wait_futures(futures)
        for future in futures:
            if not future.cancelled():
                future.exception()  # absorb, never leak into the caller

    # ------------------------------------------------------------------
    # pass execution
    # ------------------------------------------------------------------

    def _run_pass(
        self,
        encoded,
        shards: List[ShardSpec],
        bounds: np.ndarray,
        submit,
        monitor: Optional[RunMonitor],
    ) -> Optional[List[np.ndarray]]:
        """Fan one pass out; collect per-shard matrices in shard order.

        ``submit`` maps ``(pool, task, shard)`` to a future.  Returns
        ``None`` on worker failure (after degrading); raises
        :class:`RunInterrupted` on a budget/cancellation stop, with the
        in-flight work drained first.
        """
        monitor = monitor or RunMonitor()
        token = self._attach(encoded)
        pool = self._ensure_pool()
        with tracer_of(monitor).span(
            "parallel_pass", shards=len(shards), workers=self.workers
        ):
            futures: List[Future] = []
            for shard in shards:
                task = worker.ShardTask(
                    token=token,
                    index=shard.index,
                    unit_bounds=np.ascontiguousarray(
                        bounds[shard.unit_lo : shard.unit_hi + 1]
                    ),
                    fault=self._next_fault(),
                )
                futures.append(submit(pool, task, shard))
            results: List[np.ndarray] = []
            try:
                for future in futures:
                    results.append(future.result())
                    monitor.checkpoint()
            except RunInterrupted:
                self._drain(futures)
                raise
            except Exception as error:
                self._drain(futures)
                self._degrade(error)
                return None
            # Per-shard granule checkpoints, in shard order; a stop here
            # discards the pass exactly like a serial mid-scan stop would.
            for shard in shards:
                monitor.tick_granules(range(shard.unit_lo, shard.unit_hi))
        self._record_pass(len(shards))
        return results

    def _record_pass(self, n_shards: int) -> None:
        self.stats["parallel_passes"] += 1
        self._metrics.counter(
            "repro_parallel_passes_total",
            "Counting passes executed on the sharded process pool.",
        ).inc()
        self._metrics.counter(
            "repro_parallel_shards_total",
            "Shards dispatched to the worker pool across passes.",
        ).inc(n_shards)

    def _record_merge(self, seconds: float) -> None:
        self.stats["merge_seconds"] += seconds
        self._metrics.histogram(
            "repro_parallel_merge_seconds",
            "Per-pass wall time merging shard count matrices.",
        ).observe(seconds)

    def count_items(
        self, encoded, bounds: np.ndarray, monitor: Optional[RunMonitor] = None
    ) -> Optional[np.ndarray]:
        """Parallel level-1 scan: the full (n_items, n_units) matrix.

        Returns ``None`` when the pass should run serially instead.
        """
        if not self.effective():
            return None
        shards = plan_shards(bounds, self.workers)
        if len(shards) < 2:
            return None
        results = self._run_pass(
            encoded,
            shards,
            bounds,
            lambda pool, task, shard: pool.submit(worker.count_items_shard, task),
            monitor,
        )
        if results is None:
            return None
        started = time.perf_counter()
        merged = np.hstack(results)
        self._record_merge(time.perf_counter() - started)
        return merged

    def count_candidates(
        self,
        encoded,
        bounds: np.ndarray,
        candidates: Candidates,
        counting: str,
        unit_mask: Optional[np.ndarray] = None,
        candidate_masks: Optional[np.ndarray] = None,
        monitor: Optional[RunMonitor] = None,
    ) -> Optional[np.ndarray]:
        """Parallel candidate pass: the (n_candidates, n_units) matrix.

        Rows align with ``candidates`` (itemsets or a level's id matrix);
        ``None`` means "count serially".
        """
        if not self.effective() or not len(candidates):
            return None
        shards = plan_shards(bounds, self.workers)
        if len(shards) < 2:
            return None

        def submit(pool, task, shard: ShardSpec):
            shard_unit_mask = (
                None
                if unit_mask is None
                else np.ascontiguousarray(unit_mask[shard.unit_lo : shard.unit_hi])
            )
            shard_candidate_masks = (
                None
                if candidate_masks is None
                else np.ascontiguousarray(
                    candidate_masks[:, shard.unit_lo : shard.unit_hi]
                )
            )
            return pool.submit(
                worker.count_candidates_shard,
                task,
                candidates if isinstance(candidates, np.ndarray) else list(candidates),
                counting,
                shard_unit_mask,
                shard_candidate_masks,
            )

        results = self._run_pass(encoded, shards, bounds, submit, monitor)
        if results is None:
            return None
        started = time.perf_counter()
        merged = np.hstack(results)
        self._record_merge(time.perf_counter() - started)
        return merged

    def __repr__(self) -> str:
        state = "degraded" if self.degraded else "ok"
        return f"ShardedExecutor(workers={self.workers}, {state})"
