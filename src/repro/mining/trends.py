"""Trend detection — emerging and declining patterns.

A temporal feature the ⟨AR, TF⟩ framework doesn't capture is the
*monotone drift*: an itemset whose support ramps up (an emerging
pattern) or decays (a dying one).  This module fits a least-squares line
to each frequent itemset's per-unit support series and reports itemsets
whose slope and fit are strong enough to call a trend — the natural
companion analysis to valid periods ("when did it hold?") and
periodicities ("how does it recur?"): "where is it *going*?".

Extension beyond the paper (listed in DESIGN.md); statistically this is
the simplest member of the emerging-patterns family.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.apriori import AnyDatabase
from repro.core.items import ItemCatalog, Itemset
from repro.errors import MiningParameterError
from repro.mining.context import TemporalContext, per_unit_frequent_itemsets
from repro.mining.results import MiningReport
from repro.runtime.budget import RunMonitor
from repro.temporal.granularity import Granularity


@dataclass(frozen=True)
class TrendFinding:
    """One itemset's support trend.

    Attributes:
        itemset: the pattern.
        slope: change in relative support per time unit (least squares).
        r_squared: goodness of the linear fit in [0, 1].
        start_support / end_support: fitted support at the first / last
            unit (clamped to [0, 1]).
        direction: ``"emerging"`` (slope > 0) or ``"declining"``.
    """

    itemset: Itemset
    slope: float
    r_squared: float
    start_support: float
    end_support: float

    @property
    def direction(self) -> str:
        return "emerging" if self.slope > 0 else "declining"

    def format(self, catalog: Optional[ItemCatalog] = None) -> str:
        rendered = (
            catalog.format(self.itemset)
            if catalog is not None
            else ", ".join(str(i) for i in self.itemset)
        )
        return (
            f"{{{rendered}}}  {self.direction}  "
            f"supp {self.start_support:.3f} -> {self.end_support:.3f}  "
            f"(slope={self.slope:+.5f}/unit, r2={self.r_squared:.2f})"
        )

    def __str__(self) -> str:
        return self.format()


def fit_trend(supports: np.ndarray) -> Tuple[float, float, float, float]:
    """Least-squares line through a support series.

    Returns ``(slope, r_squared, fitted_start, fitted_end)``; a constant
    series has slope 0 and (by convention) r² 0.
    """
    n = len(supports)
    if n < 2:
        value = float(supports[0]) if n else 0.0
        return 0.0, 0.0, value, value
    x = np.arange(n, dtype=float)
    y = np.asarray(supports, dtype=float)
    x_centered = x - x.mean()
    denominator = float((x_centered**2).sum())
    slope = float((x_centered * (y - y.mean())).sum()) / denominator
    intercept = float(y.mean()) - slope * float(x.mean())
    fitted = intercept + slope * x
    total = float(((y - y.mean()) ** 2).sum())
    residual = float(((y - fitted) ** 2).sum())
    r_squared = 1.0 - residual / total if total > 0 else 0.0
    start, end = np.clip(fitted[[0, -1]], 0.0, 1.0)
    return slope, r_squared, float(start), float(end)


def detect_trends(
    database: AnyDatabase,
    granularity: Granularity,
    min_support: float,
    min_total_change: float = 0.1,
    min_r_squared: float = 0.5,
    min_size: int = 1,
    max_size: int = 0,
    context: Optional[TemporalContext] = None,
    counting: str = "auto",
    monitor: Optional[RunMonitor] = None,
) -> MiningReport:
    """Find itemsets with a clear monotone support trend.

    Args:
        database: the timestamped transaction database.
        granularity: unit granularity of the support series.
        min_support: per-unit threshold for an itemset to be tracked at
            all (it must be locally frequent in at least one unit).
        min_total_change: required fitted support change |end − start|
            over the whole window.
        min_r_squared: required linear-fit quality.
        min_size / max_size: itemset size bounds (0 = unbounded max).
        monitor: optional run monitor; an exhausted budget or a cancel
            stops the counting early and the report is flagged
            ``partial=True``, its findings drawn from the fully counted
            levels only.

    Returns:
        A :class:`MiningReport` of :class:`TrendFinding` records, sorted
        by descending absolute change.
    """
    if not 0.0 <= min_total_change <= 1.0:
        raise MiningParameterError("min_total_change must be in [0, 1]")
    if not 0.0 <= min_r_squared <= 1.0:
        raise MiningParameterError("min_r_squared must be in [0, 1]")
    monitor = monitor or RunMonitor()
    started = time.perf_counter()
    if context is None:
        context = TemporalContext(database, granularity)
    counts = per_unit_frequent_itemsets(
        context,
        min_support,
        min_units=1,
        max_size=max_size,
        counting=counting,
        monitor=monitor,
    )
    sizes = np.maximum(context.unit_sizes, 1)
    findings: List[TrendFinding] = []
    for itemset, row in counts.counts.items():
        if len(itemset) < min_size:
            continue
        supports = row / sizes
        # Empty units carry no evidence; skip series dominated by gaps.
        observed = context.unit_sizes > 0
        if int(observed.sum()) < 3:
            continue
        slope, r_squared, fitted_start, fitted_end = fit_trend(
            supports[observed]
        )
        if abs(fitted_end - fitted_start) < min_total_change:
            continue
        if r_squared < min_r_squared:
            continue
        findings.append(
            TrendFinding(
                itemset=itemset,
                slope=slope,
                r_squared=r_squared,
                start_support=fitted_start,
                end_support=fitted_end,
            )
        )
    findings.sort(key=lambda f: -abs(f.end_support - f.start_support))
    monitor.raise_for_strict()
    elapsed = time.perf_counter() - started
    return MiningReport(
        task_name="trends",
        results=tuple(findings),
        n_transactions=len(database),
        n_units=context.n_units,
        elapsed_seconds=elapsed,
        partial=monitor.stopped,
        diagnostics=monitor.diagnostics(),
    )
