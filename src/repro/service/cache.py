"""The content-addressed result cache.

Interactive mining workloads are dominated by repeated near-identical
queries over slowly-changing data (the IQMI loop: refine a threshold,
re-run, compare).  The cache exploits that by addressing results with
*content*, never with identity:

    key = SHA-256 over (canonical TML text,
                        dataset fingerprint,
                        result-relevant engine settings)

* The canonical TML text comes from :func:`repro.tml.canonical.canonicalize`
  — whitespace/case/clause-order variants of a query collapse to one key.
* The dataset fingerprint is :meth:`SqliteStore.fingerprint` — a digest
  of the store *content*, so a mutated-then-restored dataset hits the
  old entries again, while any real change misses.
* Settings cover everything that can alter the serialized result
  (engine, budget, incremental mode).  Counting backends and
  incremental modes are bit-identical by tested invariant, but they
  stay in the key so a backend bug can never leak results across
  configurations.

Eviction is LRU with an optional TTL; invalidation removes exactly the
entries recorded under one dataset fingerprint (the mutation hook of
the service core).  All operations are thread-safe.

With a :class:`~repro.service.durability.spill.DiskCacheTier` attached,
every put is mirrored to disk and a memory miss falls through to the
spill file (promoting the entry back into memory), so warm results
survive a process restart.  The spill tier is failure-isolated: a
broken disk is logged and counted, never surfaced to the request.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sqlite3
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional

from repro.errors import DatabaseError
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry, default_registry

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (type-only)
    from repro.service.durability.spill import DiskCacheTier

logger = get_logger(__name__)


def cache_key(
    canonical_tml: str,
    dataset_fingerprint: str,
    settings: Optional[Mapping[str, object]] = None,
) -> str:
    """The content address of one (query, dataset, settings) triple."""
    blob = json.dumps(
        {
            "tml": canonical_tml,
            "dataset": dataset_fingerprint,
            "settings": dict(sorted((settings or {}).items())),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CacheEntry:
    """One cached result plus the metadata eviction needs."""

    key: str
    value: Dict
    dataset_fingerprint: str
    created_at: float
    hits: int = 0


@dataclass
class CacheStats:
    """Cumulative cache counters (returned as a dict by ``stats()``)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    expirations: int = 0
    invalidations: int = 0
    delta_refreshes: int = 0
    disk_hits: int = 0
    disk_errors: int = 0


class ResultCache:
    """A thread-safe LRU+TTL map from content address to result dict.

    ``max_entries`` bounds memory; ``ttl_seconds=None`` disables expiry
    (content addressing already guarantees freshness — TTL exists to cap
    staleness when the store is mutated *outside* the service's
    invalidation hooks, e.g. by another process on the same file).
    """

    def __init__(
        self,
        max_entries: int = 256,
        ttl_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        metrics: Optional[MetricsRegistry] = None,
        spill: Optional["DiskCacheTier"] = None,
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be > 0, got {ttl_seconds}")
        self.max_entries = max_entries
        self.ttl_seconds = ttl_seconds
        self.spill = spill
        self._clock = clock
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self._stats = CacheStats()
        registry = metrics if metrics is not None else default_registry()
        self._m_events = registry.counter(
            "repro_cache_events_total",
            "Result-cache activity, by event kind.",
            labelnames=("event",),
        )
        self._m_entries = registry.gauge(
            "repro_cache_entries", "Entries currently resident in the result cache."
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Optional[Dict]:
        """The cached value, or ``None`` on miss/expiry (counted apart).

        A memory miss falls through to the disk spill tier when one is
        attached; a disk hit is promoted back into the memory tier (and
        counts as a memory miss plus a ``disk_hit``).
        """
        return self._lookup(key, count_miss=True)

    def get_hit(self, key: str) -> Optional[Dict]:
        """:meth:`get` for a probe whose misses another ``get`` counts.

        Hits count exactly as in :meth:`get`; a miss in both tiers
        leaves every miss counter alone.  The service probes with this
        before admission and hands a miss to the admitted job, whose own
        :meth:`get` of the same key then counts it — once.
        """
        return self._lookup(key, count_miss=False)

    def _lookup(self, key: str, count_miss: bool) -> Optional[Dict]:
        with self._lock:
            entry = self._entries.get(key)
            if (
                entry is not None
                and self.ttl_seconds is not None
                and self._clock() - entry.created_at > self.ttl_seconds
            ):
                del self._entries[key]
                self._stats.expirations += 1
                self._m_events.inc(event="expiration")
                self._m_entries.set(len(self._entries))
                entry = None
            if entry is None:
                value = self._spill_get(key, count_miss)
                if value is not None or count_miss:
                    self._stats.misses += 1
                    self._m_events.inc(event="miss")
                return value
            self._entries.move_to_end(key)
            entry.hits += 1
            self._stats.hits += 1
            self._m_events.inc(event="hit")
            # Hand out a copy: result dicts live on Job.result and get
            # serialized/annotated downstream, and an in-place mutation
            # there must never reach back into the shared entry.
            return copy.deepcopy(entry.value)

    def _spill_get(self, key: str, count_miss: bool) -> Optional[Dict]:
        """Disk fallback for a memory miss (caller holds the lock).

        A disk hit is promoted into the memory tier (counted as a
        ``disk_hit``, not a ``put``); any spill failure degrades to a
        miss.
        """
        if self.spill is None:
            return None
        try:
            found = self.spill.get(key) if count_miss else self.spill.get_hit(key)
        except (DatabaseError, sqlite3.Error, ValueError) as error:
            self._stats.disk_errors += 1
            self._m_events.inc(event="disk_error")
            logger.warning("disk cache get failed for %s: %s", key[:12], error)
            return None
        if found is None:
            return None
        value, fingerprint = found
        self._entries[key] = CacheEntry(
            key=key,
            value=copy.deepcopy(value),
            dataset_fingerprint=fingerprint,
            created_at=self._clock(),
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._stats.evictions += 1
            self._m_events.inc(event="eviction")
        self._m_entries.set(len(self._entries))
        self._stats.disk_hits += 1
        self._m_events.inc(event="disk_hit")
        return value

    def put(self, key: str, value: Dict, dataset_fingerprint: str) -> None:
        """Insert (or refresh) an entry, evicting LRU past capacity.

        Mirrored to the disk spill tier when one is attached (disk
        failures are counted and logged, never raised — losing the
        spill copy only costs a future restart its warmth).
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = CacheEntry(
                key=key,
                value=copy.deepcopy(value),
                dataset_fingerprint=dataset_fingerprint,
                created_at=self._clock(),
            )
            self._stats.puts += 1
            self._m_events.inc(event="put")
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._stats.evictions += 1
                self._m_events.inc(event="eviction")
            self._m_entries.set(len(self._entries))
            if self.spill is not None:
                try:
                    self.spill.put(key, value, dataset_fingerprint)
                except (DatabaseError, sqlite3.Error, ValueError) as error:
                    self._stats.disk_errors += 1
                    self._m_events.inc(event="disk_error")
                    logger.warning(
                        "disk cache put failed for %s: %s", key[:12], error
                    )

    def invalidate_fingerprint(self, dataset_fingerprint: str) -> int:
        """Drop exactly the entries cached under one dataset fingerprint.

        Returns the number of entries removed.  Entries for other
        fingerprints (other datasets, or other versions of this one)
        are untouched — mutation hooks must never over-invalidate.
        """
        with self._lock:
            doomed = [
                key
                for key, entry in self._entries.items()
                if entry.dataset_fingerprint == dataset_fingerprint
            ]
            for key in doomed:
                del self._entries[key]
            removed = len(doomed)
            if self.spill is not None:
                try:
                    removed += self.spill.invalidate_fingerprint(dataset_fingerprint)
                except (DatabaseError, sqlite3.Error) as error:
                    self._stats.disk_errors += 1
                    self._m_events.inc(event="disk_error")
                    logger.warning("disk cache invalidation failed: %s", error)
            self._stats.invalidations += removed
            if doomed:
                self._m_events.inc(len(doomed), event="invalidation")
                self._m_entries.set(len(self._entries))
            return removed

    def note_append(self, old_fingerprint: str, new_fingerprint: str) -> int:
        """Retire entries superseded by an append-only store mutation.

        Semantically this is an invalidation of ``old_fingerprint`` — the
        results are stale and must not be served — but it is counted
        under a distinct ``delta_refreshes`` stat (and a
        ``delta_refresh`` event) because the *engine* state behind those
        entries was not discarded: the incremental contexts delta-refresh
        from the old counts, so the replacement entries are cheap to
        rebuild.  Distinguishing the two in telemetry is what lets the
        operator see appends as refreshes rather than cache churn.
        """
        if old_fingerprint == new_fingerprint:
            return 0
        with self._lock:
            doomed = [
                key
                for key, entry in self._entries.items()
                if entry.dataset_fingerprint == old_fingerprint
            ]
            for key in doomed:
                del self._entries[key]
            removed = len(doomed)
            if self.spill is not None:
                try:
                    removed += self.spill.invalidate_fingerprint(old_fingerprint)
                except (DatabaseError, sqlite3.Error) as error:
                    self._stats.disk_errors += 1
                    self._m_events.inc(event="disk_error")
                    logger.warning("disk cache delta refresh failed: %s", error)
            self._stats.delta_refreshes += removed
            if removed:
                self._m_events.inc(removed, event="delta_refresh")
            self._m_entries.set(len(self._entries))
            return removed

    def clear(self) -> int:
        """Drop everything (both tiers); returns entries removed."""
        with self._lock:
            n = len(self._entries)
            self._entries.clear()
            if self.spill is not None:
                try:
                    n += self.spill.clear()
                except (DatabaseError, sqlite3.Error) as error:
                    self._stats.disk_errors += 1
                    self._m_events.inc(event="disk_error")
                    logger.warning("disk cache clear failed: %s", error)
            self._stats.invalidations += n
            if n:
                self._m_events.inc(n, event="invalidation")
            self._m_entries.set(0)
            return n

    def stats(self) -> Dict[str, object]:
        """A snapshot of the counters plus the current entry count."""
        with self._lock:
            snapshot: Dict[str, object] = {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self._stats.hits,
                "misses": self._stats.misses,
                "puts": self._stats.puts,
                "evictions": self._stats.evictions,
                "expirations": self._stats.expirations,
                "invalidations": self._stats.invalidations,
                "delta_refreshes": self._stats.delta_refreshes,
                "disk_hits": self._stats.disk_hits,
                "disk_errors": self._stats.disk_errors,
            }
            if self.spill is not None:
                try:
                    snapshot["disk"] = self.spill.stats()
                except (DatabaseError, sqlite3.Error):  # pragma: no cover
                    snapshot["disk"] = {"error": "unavailable"}
            return snapshot
