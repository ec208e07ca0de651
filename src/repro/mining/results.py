"""Result records for temporal mining.

A discovered temporal association rule is the pair ⟨AR, TF⟩; each task
yields its own record type pairing a :class:`~repro.core.rulegen.RuleKey`
with the temporal feature found and the measures that justify it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.items import ItemCatalog
from repro.core.rulegen import AssociationRule, RuleKey
from repro.runtime.budget import RunDiagnostics
from repro.temporal.granularity import Granularity, unit_label
from repro.temporal.interval import TimeInterval
from repro.temporal.periodicity import CalendricPeriodicity, CyclicPeriodicity


@dataclass(frozen=True)
class ValidPeriod:
    """One maximal period during which a rule holds.

    Attributes:
        interval: the period as a concrete time interval.
        first_unit / last_unit: absolute unit indices (inclusive).
        n_units: period length in units.
        n_valid_units: units inside the period where the rule holds.
        frequency: ``n_valid_units / n_units``.
        temporal_support: support of the rule over the period's
            transactions.
        temporal_confidence: confidence over the period's transactions.
    """

    interval: TimeInterval
    first_unit: int
    last_unit: int
    n_units: int
    n_valid_units: int
    frequency: float
    temporal_support: float
    temporal_confidence: float

    def label(self, granularity: Granularity) -> str:
        start = unit_label(self.first_unit, granularity)
        if self.first_unit == self.last_unit:
            return start
        return f"{start}..{unit_label(self.last_unit, granularity)}"


@dataclass(frozen=True)
class ValidPeriodRule:
    """⟨AR, valid periods⟩ — the outcome of Task 1 for one rule."""

    key: RuleKey
    granularity: Granularity
    periods: Tuple[ValidPeriod, ...]

    def format(self, catalog: Optional[ItemCatalog] = None) -> str:
        periods = "; ".join(
            f"{p.label(self.granularity)} (freq={p.frequency:.2f}, "
            f"supp={p.temporal_support:.3f}, conf={p.temporal_confidence:.3f})"
            for p in self.periods
        )
        return f"{self.key.format(catalog)}  DURING  {periods}"

    def __str__(self) -> str:
        return self.format()


@dataclass(frozen=True)
class PeriodicityFinding:
    """⟨AR, periodicity⟩ — the outcome of Task 2 for one rule.

    Attributes:
        key: the rule.
        periodicity: the cyclic or calendric periodicity found.
        n_member_units: periodicity member units inside the data window.
        n_valid_units: member units where the rule holds.
        match_ratio: ``n_valid_units / n_member_units``.
        temporal_support / temporal_confidence: measures over the union
            of member units.
    """

    key: RuleKey
    periodicity: Union[CyclicPeriodicity, CalendricPeriodicity]
    n_member_units: int
    n_valid_units: int
    match_ratio: float
    temporal_support: float
    temporal_confidence: float

    def format(self, catalog: Optional[ItemCatalog] = None) -> str:
        return (
            f"{self.key.format(catalog)}  PERIODIC  {self.periodicity.describe()} "
            f"(match={self.match_ratio:.2f}, supp={self.temporal_support:.3f}, "
            f"conf={self.temporal_confidence:.3f})"
        )

    def __str__(self) -> str:
        return self.format()


@dataclass(frozen=True)
class ConstrainedRule:
    """⟨AR, given feature⟩ — the outcome of Task 3 for one rule.

    ``rule`` carries measures computed over the feature-restricted
    sub-database; ``feature_description`` records the constraint.
    """

    rule: AssociationRule
    feature_description: str

    @property
    def key(self) -> RuleKey:
        return self.rule.key()

    def format(self, catalog: Optional[ItemCatalog] = None) -> str:
        return (
            f"{self.rule.format(catalog)}  WITHIN  {self.feature_description} "
            f"(supp={self.rule.support:.3f}, conf={self.rule.confidence:.3f})"
        )

    def __str__(self) -> str:
        return self.format()


@dataclass(frozen=True)
class MiningReport:
    """A uniform wrapper for any task's result list plus run metadata.

    Attributes:
        task_name: ``"valid_periods"``, ``"periodicities"`` or
            ``"constrained"``.
        results: the task-specific records.
        n_transactions: transactions scanned.
        n_units: time units spanned (0 for Task 3 over raw intervals).
        elapsed_seconds: wall-clock mining time.
        partial: the run stopped early (budget exhausted or cancelled);
            the results are a sound subset of the full run's.
        diagnostics: what the run did and why it stopped (populated by
            every run of the three tasks, partial or not: each has a
            run monitor).
        trace: the serialized span tree for the run (populated only
            when the miner ran with tracing enabled; see
            :mod:`repro.obs.trace`).
        plan: the resolved :class:`~repro.planner.QueryPlan` (as a
            dict) the run executed under, when the run went through
            :class:`~repro.mining.engine.TemporalMiner`.
    """

    task_name: str
    results: Tuple[object, ...]
    n_transactions: int
    n_units: int
    elapsed_seconds: float
    partial: bool = False
    diagnostics: Optional[RunDiagnostics] = None
    trace: Optional[Dict] = None
    plan: Optional[Dict] = None

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def format(self, catalog: Optional[ItemCatalog] = None, limit: int = 0) -> str:
        lines = [
            f"== {self.task_name}: {len(self.results)} result(s) over "
            f"{self.n_transactions} transactions / {self.n_units} units "
            f"in {self.elapsed_seconds:.3f}s =="
        ]
        if self.partial and self.diagnostics is not None:
            lines.append(f"  !! PARTIAL — {self.diagnostics.describe()}")
        elif self.partial:
            lines.append("  !! PARTIAL — run stopped before completion")
        shown = self.results if limit == 0 else self.results[:limit]
        for record in shown:
            formatter = getattr(record, "format", None)
            lines.append("  " + (formatter(catalog) if formatter else str(record)))
        if limit and len(self.results) > limit:
            lines.append(f"  ... {len(self.results) - limit} more")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()
