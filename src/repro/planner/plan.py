"""The :class:`QueryPlan` — one statement's resolved execution plan.

A plan is the single object every layer consumes instead of reading the
old knobs directly: the miner takes ``backend`` from it, the service
records it on the job,
``EXPLAIN`` renders :meth:`QueryPlan.describe_rows`, and traces/metrics
carry :meth:`QueryPlan.to_dict`.  Plans are frozen and fully determined
by (stats, shape, pin), so planner behaviour is golden-snapshot
testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.planner.cost import StatementShape, WorkloadEstimate
from repro.planner.stats import StoreStats


def _fmt_seconds(seconds: float) -> str:
    """Stable, snapshot-friendly seconds formatting (3 significant digits)."""
    return f"{seconds:.3g}s"


@dataclass(frozen=True)
class QueryPlan:
    """The planner's decision for one statement against one store."""

    backend: str
    cache_policy: str  # "reuse" | "bypass"
    backend_pinned: bool
    est_seconds: float  # estimated wall seconds (0.0 for a horizontal pin)
    workload: WorkloadEstimate
    stats: StoreStats
    shape: StatementShape
    reasons: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def describe_rows(self) -> List[Tuple[str, str]]:
        """(property, value) rows for ``EXPLAIN``-style tabular output."""
        pin = lambda flag: " (pinned)" if flag else ""  # noqa: E731
        rows = [
            ("plan: backend", f"{self.backend}{pin(self.backend_pinned)}"),
            ("plan: cache", self.cache_policy),
            ("plan: est cost", _fmt_seconds(self.est_seconds)),
            (
                "plan: est workload",
                f"{self.workload.est_frequent_items} frequent items, "
                f"{self.workload.est_candidates} candidates/unit "
                f"over {self.workload.n_units} units",
            ),
        ]
        for reason in self.reasons:
            rows.append(("plan: note", reason))
        return rows

    def describe(self) -> str:
        """Multi-line human-readable plan (REPL / logs)."""
        width = max(len(name) for name, _ in self.describe_rows())
        return "\n".join(
            f"{name.ljust(width)}  {value}" for name, value in self.describe_rows()
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (job records, traces, reports)."""
        return {
            "backend": self.backend,
            "cache_policy": self.cache_policy,
            "backend_pinned": self.backend_pinned,
            "est_seconds": round(self.est_seconds, 6),
            "est_frequent_items": self.workload.est_frequent_items,
            "est_candidates": self.workload.est_candidates,
            "n_units": self.workload.n_units,
            "stats": self.stats.to_dict(),
            "shape": self.shape.to_dict(),
            "reasons": list(self.reasons),
        }


__all__ = ["QueryPlan"]
