"""The disk spill tier of the content-addressed result cache.

Warm results are the most expensive state the service holds — a single
entry can represent minutes of mining — and the in-memory
:class:`~repro.service.cache.ResultCache` loses all of them on restart.
:class:`DiskCacheTier` persists each entry as its canonical JSON blob
under the *same* SHA-256 content address the memory tier uses, so:

* a restarted service re-serves its warm set from disk (promoted back
  into memory on first hit),
* byte-identity holds across tiers — the blob stored is
  :func:`canonical_json` of the result dict, and the chaos/byte-identity
  suites assert a disk round-trip re-serializes identically,
* several scale-out workers can later share one spill file (SQLite WAL
  allows concurrent readers with a single writer; every access here is
  one short transaction).

Eviction mirrors the memory tier: LRU by a persisted use sequence, plus
an optional TTL measured on the **wall clock** (the memory tier uses the
monotonic clock, which does not survive restarts — a spilled entry's age
must).
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.errors import DatabaseError
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.runtime.retry import RetryPolicy, retry_call

logger = get_logger(__name__)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key         TEXT PRIMARY KEY,
    fingerprint TEXT NOT NULL,
    blob        TEXT NOT NULL,
    created_at  REAL NOT NULL,
    use_seq     INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_fingerprint ON results (fingerprint);
CREATE INDEX IF NOT EXISTS idx_results_use ON results (use_seq);
"""


def canonical_json(value: Dict) -> str:
    """The deterministic serialization both cache tiers are pinned to."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class DiskCacheTier:
    """A restart-survivable SHA-256-key → JSON-blob result store.

    Thread-safe behind an internal lock; writes retried through the
    PR 1 backoff policy.  All methods are failure-isolated by the
    caller (:class:`~repro.service.cache.ResultCache` treats a broken
    spill tier as a cache miss, never as a request failure).

    Args:
        path: spill database file.
        max_entries: LRU bound (disk is cheap — default is wide).
        ttl_seconds: wall-clock expiry; ``None`` disables (content
            addressing already guarantees freshness).
        clock: injectable **wall** clock (ages must survive restarts).
    """

    def __init__(
        self,
        path: Union[str, Path],
        max_entries: int = 4096,
        ttl_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.time,
        retry_policy: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be > 0, got {ttl_seconds}")
        self.path = str(path)
        self.max_entries = max_entries
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._retry_policy = retry_policy or RetryPolicy()
        self._sleep = sleep
        self._lock = threading.RLock()
        self._closed = False
        registry = metrics if metrics is not None else default_registry()
        self._m_events = registry.counter(
            "repro_cache_disk_events_total",
            "Disk cache-tier activity, by event kind.",
            labelnames=("event",),
        )
        self._m_entries = registry.gauge(
            "repro_cache_disk_entries", "Entries resident in the disk cache tier."
        )
        try:
            self._connection = sqlite3.connect(self.path, check_same_thread=False)
        except sqlite3.Error as error:
            raise DatabaseError(
                f"cannot open disk cache {self.path!r}: {error}"
            ) from error
        if self.path != ":memory:":
            self._connection.execute("PRAGMA journal_mode = WAL")
            self._connection.execute("PRAGMA synchronous = NORMAL")
        self._connection.execute("PRAGMA busy_timeout = 5000")
        self._connection.executescript(_SCHEMA)
        self._connection.commit()
        # The LRU sequence continues from where the last process left it.
        row = self._connection.execute("SELECT MAX(use_seq) FROM results").fetchone()
        self._use_seq = int(row[0] or 0)
        self._m_entries.set(len(self))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the spill connection (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._connection.close()
            except sqlite3.Error:  # pragma: no cover — close best-effort
                pass

    def __enter__(self) -> "DiskCacheTier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            return self._connection.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()[0]

    def _write(self, operation: Callable[[], object], describe: str):
        return retry_call(
            operation,
            policy=self._retry_policy,
            sleep=self._sleep,
            describe=describe,
        )

    # ------------------------------------------------------------------
    # the cache surface
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[Tuple[Dict, str]]:
        """``(value, dataset_fingerprint)`` for a key, or ``None``.

        A hit refreshes the entry's LRU position; an expired entry is
        deleted and reported as a miss.
        """
        return self._get(key, count_miss=True)

    def get_hit(self, key: str) -> Optional[Tuple[Dict, str]]:
        """:meth:`get` whose miss is left to a later ``get`` to count."""
        return self._get(key, count_miss=False)

    def _get(self, key: str, count_miss: bool) -> Optional[Tuple[Dict, str]]:
        with self._lock:
            row = self._connection.execute(
                "SELECT blob, fingerprint, created_at FROM results WHERE key = ?",
                (key,),
            ).fetchone()
            if row is None:
                if count_miss:
                    self._m_events.inc(event="miss")
                return None
            blob, fingerprint, created_at = row
            if (
                self.ttl_seconds is not None
                and self._clock() - created_at > self.ttl_seconds
            ):
                self._write(
                    lambda: (
                        self._connection.execute(
                            "DELETE FROM results WHERE key = ?", (key,)
                        ),
                        self._connection.commit(),
                    ),
                    "disk cache expire",
                )
                self._m_events.inc(event="expiration")
                if count_miss:
                    self._m_events.inc(event="miss")
                self._m_entries.set(len(self))
                return None
            self._use_seq += 1
            seq = self._use_seq
            self._write(
                lambda: (
                    self._connection.execute(
                        "UPDATE results SET use_seq = ? WHERE key = ?", (seq, key)
                    ),
                    self._connection.commit(),
                ),
                "disk cache touch",
            )
            self._m_events.inc(event="hit")
            return json.loads(blob), fingerprint

    def put(self, key: str, value: Dict, dataset_fingerprint: str) -> None:
        """Insert (or refresh) an entry, evicting LRU past capacity."""
        blob = canonical_json(value)
        with self._lock:
            self._use_seq += 1
            seq = self._use_seq
            now = self._clock()

            def _put():
                self._connection.execute(
                    "INSERT OR REPLACE INTO results"
                    " (key, fingerprint, blob, created_at, use_seq)"
                    " VALUES (?, ?, ?, ?, ?)",
                    (key, dataset_fingerprint, blob, now, seq),
                )
                evicted = self._connection.execute(
                    "DELETE FROM results WHERE key IN ("
                    "  SELECT key FROM results ORDER BY use_seq DESC"
                    "  LIMIT -1 OFFSET ?)",
                    (self.max_entries,),
                ).rowcount
                self._connection.commit()
                return evicted

            evicted = self._write(_put, "disk cache put")
            self._m_events.inc(event="put")
            if evicted:
                self._m_events.inc(evicted, event="eviction")
            self._m_entries.set(len(self))

    def invalidate_fingerprint(self, dataset_fingerprint: str) -> int:
        """Drop exactly one dataset fingerprint's entries; returns count."""
        with self._lock:

            def _invalidate():
                removed = self._connection.execute(
                    "DELETE FROM results WHERE fingerprint = ?",
                    (dataset_fingerprint,),
                ).rowcount
                self._connection.commit()
                return removed

            removed = self._write(_invalidate, "disk cache invalidate")
            if removed:
                self._m_events.inc(removed, event="invalidation")
                self._m_entries.set(len(self))
            return removed

    def clear(self) -> int:
        """Drop everything; returns the number of entries removed."""
        with self._lock:

            def _clear():
                removed = self._connection.execute("DELETE FROM results").rowcount
                self._connection.commit()
                return removed

            removed = self._write(_clear, "disk cache clear")
            if removed:
                self._m_events.inc(removed, event="invalidation")
            self._m_entries.set(0)
            return removed

    def stats(self) -> Dict[str, object]:
        """The ``/v1/status`` disk-tier section."""
        return {
            "path": self.path,
            "entries": len(self),
            "max_entries": self.max_entries,
            "ttl_seconds": self.ttl_seconds,
        }
