"""Store statistics: the planner's view of a transaction store.

:class:`StoreStats` is a tiny frozen summary — |D|, item cardinality,
occurrence volume, time span — from which every cost estimate in
:mod:`repro.planner.cost` is derived.  It is read from the encoding alone
(O(1) over CSR metadata, no per-basket Python work) and cheap to
memoize:

* :func:`stats_of_encoded` caches on the
  :class:`~repro.columnar.encoded.EncodedDatabase` itself (encoded
  databases are immutable once built);
* :meth:`repro.db.sqlite_store.SqliteStore.stats` caches keyed by the
  store's ``fingerprint()``, so a plan can never be built from stale
  statistics against a fresh fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Dict, Optional

from repro.temporal.granularity import Granularity, unit_index


@dataclass(frozen=True)
class StoreStats:
    """Summary statistics of one transaction store (or a slice of it)."""

    n_transactions: int
    n_items: int
    n_occurrences: int
    first_timestamp: Optional[datetime] = None
    last_timestamp: Optional[datetime] = None

    @property
    def avg_basket_size(self) -> float:
        """Mean items per transaction."""
        if self.n_transactions == 0:
            return 0.0
        return self.n_occurrences / self.n_transactions

    @property
    def density(self) -> float:
        """Fraction of the item universe present in an average basket."""
        if self.n_items == 0:
            return 0.0
        return self.avg_basket_size / self.n_items

    def units_spanned(self, granularity: Optional[Granularity]) -> int:
        """Calendar units covered at ``granularity`` (1 when unitless)."""
        if (
            granularity is None
            or self.first_timestamp is None
            or self.last_timestamp is None
        ):
            return 1
        return (
            unit_index(self.last_timestamp, granularity)
            - unit_index(self.first_timestamp, granularity)
            + 1
        )

    def transactions_per_unit(self, granularity: Optional[Granularity]) -> float:
        """Mean |D| per calendar unit at ``granularity``."""
        units = self.units_spanned(granularity)
        if units == 0:
            return 0.0
        return self.n_transactions / units

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_transactions": self.n_transactions,
            "n_items": self.n_items,
            "n_occurrences": self.n_occurrences,
            "avg_basket_size": round(self.avg_basket_size, 4),
            "density": round(self.density, 6),
            "first_timestamp": (
                self.first_timestamp.isoformat() if self.first_timestamp else None
            ),
            "last_timestamp": (
                self.last_timestamp.isoformat() if self.last_timestamp else None
            ),
        }


def stats_of_encoded(encoded) -> StoreStats:
    """Statistics of an :class:`~repro.columnar.encoded.EncodedDatabase`.

    O(1) over the CSR metadata; memoized on the encoded database itself
    (the layout is immutable once constructed).
    """
    cached = getattr(encoded, "_stats", None)
    if cached is not None:
        return cached
    n = len(encoded)
    stats = StoreStats(
        n_transactions=n,
        n_items=encoded.n_items,
        n_occurrences=int(encoded.offsets[-1]) if n else 0,
        first_timestamp=encoded.timestamps[0] if n else None,
        last_timestamp=encoded.timestamps[-1] if n else None,
    )
    try:
        encoded._stats = stats
    except AttributeError:  # pragma: no cover - foreign encoded-like object
        pass
    return stats


def compute_stats(source) -> StoreStats:
    """Statistics of any supported transaction source.

    Accepts a :class:`StoreStats` (returned as-is), an
    :class:`~repro.columnar.encoded.EncodedDatabase`, or an in-memory
    ``TransactionDatabase`` — read through its memoized encoding, so
    every source is counted the same way, id-only items included.
    """
    if isinstance(source, StoreStats):
        return source
    return stats_of_encoded(source if hasattr(source, "offsets") else source.encoded())
