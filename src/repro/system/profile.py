"""Temporal profiles — the support of an itemset over time.

The first question an analyst asks about a pattern is "what does its
support look like over time?".  A :class:`TemporalProfile` is that
series: per-unit relative support of one itemset, with summary
statistics and an ASCII sparkline the IQMS REPL renders inline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.apriori import AnyDatabase
from repro.core.items import ItemCatalog, Itemset, itemset_from_any
from repro.mining.context import TemporalContext
from repro.temporal.granularity import Granularity, unit_label

_SPARKS = "▁▂▃▄▅▆▇█"


@dataclass(frozen=True)
class TemporalProfile:
    """Per-unit support series of one itemset."""

    itemset: Itemset
    granularity: Granularity
    first_unit: int
    counts: Tuple[int, ...]
    unit_sizes: Tuple[int, ...]

    @property
    def supports(self) -> Tuple[float, ...]:
        """Relative support per unit (0.0 in empty units)."""
        return tuple(
            count / size if size else 0.0
            for count, size in zip(self.counts, self.unit_sizes)
        )

    @property
    def n_units(self) -> int:
        return len(self.counts)

    def global_support(self) -> float:
        total = sum(self.unit_sizes)
        return sum(self.counts) / total if total else 0.0

    def peak(self) -> Tuple[int, float]:
        """(absolute unit index, support) of the strongest unit."""
        supports = self.supports
        offset = int(np.argmax(supports)) if supports else 0
        return self.first_unit + offset, supports[offset] if supports else 0.0

    def burstiness(self) -> float:
        """Peak-to-average support ratio (1.0 = flat; higher = seasonal).

        The quick screen for "is this pattern temporal at all?": flat
        profiles have nothing for the temporal tasks to find.
        """
        average = self.global_support()
        if average <= 0.0:
            return 0.0
        return self.peak()[1] / average

    def sparkline(self) -> str:
        """One character per unit, height ∝ support."""
        supports = self.supports
        top = max(supports, default=0.0)
        if top <= 0.0:
            return _SPARKS[0] * len(supports)
        return "".join(
            _SPARKS[min(int(s / top * (len(_SPARKS) - 1) + 0.5), len(_SPARKS) - 1)]
            for s in supports
        )

    def format(self, catalog: Optional[ItemCatalog] = None) -> str:
        rendered = (
            catalog.format(self.itemset)
            if catalog is not None
            else ", ".join(str(i) for i in self.itemset)
        )
        peak_unit, peak_support = self.peak()
        return (
            f"{{{rendered}}} over {self.n_units} {self.granularity}s  "
            f"{self.sparkline()}\n"
            f"  global supp={self.global_support():.3f}  "
            f"peak={peak_support:.3f} @ {unit_label(peak_unit, self.granularity)}  "
            f"burstiness={self.burstiness():.1f}x"
        )

    def __str__(self) -> str:
        return self.format()


def support_profile(
    database: AnyDatabase,
    itemset: object,
    granularity: Granularity,
    context: Optional[TemporalContext] = None,
) -> TemporalProfile:
    """Compute the temporal profile of ``itemset`` (ids, labels or Itemset)."""
    target = itemset_from_any(itemset, database.catalog)
    if context is None:
        context = TemporalContext(database, granularity)
    counts = context.count_candidates_per_unit([target])[target]
    return TemporalProfile(
        itemset=target,
        granularity=granularity,
        first_unit=context.first_unit,
        counts=tuple(int(c) for c in counts),
        unit_sizes=tuple(int(s) for s in context.unit_sizes),
    )
