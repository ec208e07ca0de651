"""Temporal association rule mining — the paper's three tasks.

* Task 1: valid-period discovery (:mod:`repro.mining.valid_periods`)
* Task 2: periodicity discovery (:mod:`repro.mining.periodicities`)
* Task 3: mining under a given temporal feature
  (:mod:`repro.mining.constrained`)

:class:`TemporalMiner` is the facade that runs any of them.
"""

from repro.mining.constrained import (
    describe_feature,
    feature_predicate,
    mine_with_feature,
    restrict_database,
)
from repro.mining.context import (
    PerUnitCounts,
    TemporalContext,
    per_unit_frequent_itemsets,
)
from repro.mining.engine import TemporalMiner
from repro.mining.periodicities import (
    cycles_of_sequence,
    discover_cyclic_interleaved,
    discover_periodicities,
    prune_submultiple_cycles,
)
from repro.mining.granularity_search import (
    GranularityFinding,
    describe_findings,
    discover_across_granularities,
)
from repro.mining.itemset_periods import ItemsetPeriods, discover_itemset_periods
from repro.mining.cooccurrence import (
    CotemporalGroup,
    cotemporal_groups,
    describe_groups,
    temporal_jaccard,
)
from repro.mining.pruning import (
    PruningOutcome,
    PruningPolicy,
    prune_constrained_report,
    prune_rules,
    prune_temporal_specializations,
)
from repro.mining.results import (
    ConstrainedRule,
    MiningReport,
    PeriodicityFinding,
    ValidPeriod,
    ValidPeriodRule,
)
from repro.mining.rulespace import (
    RuleUnitSeries,
    candidate_rules,
    enumerate_rule_splits,
    rule_series,
)
from repro.mining.tasks import (
    ConstrainedTask,
    PeriodicityTask,
    RuleThresholds,
    TemporalFeature,
    ValidPeriodTask,
)
from repro.mining.trends import TrendFinding, detect_trends, fit_trend
from repro.mining.valid_periods import discover_valid_periods, maximal_valid_windows
from repro.mining.validation import (
    ValidationResult,
    generalization_rate,
    holdout_split,
    validate_periodicities,
)

__all__ = [
    "ConstrainedRule",
    "ConstrainedTask",
    "CotemporalGroup",
    "GranularityFinding",
    "ItemsetPeriods",
    "MiningReport",
    "PerUnitCounts",
    "PeriodicityFinding",
    "PeriodicityTask",
    "PruningOutcome",
    "PruningPolicy",
    "RuleThresholds",
    "RuleUnitSeries",
    "TemporalContext",
    "TemporalFeature",
    "TemporalMiner",
    "TrendFinding",
    "ValidPeriod",
    "ValidPeriodRule",
    "ValidPeriodTask",
    "ValidationResult",
    "candidate_rules",
    "cotemporal_groups",
    "cycles_of_sequence",
    "describe_feature",
    "discover_cyclic_interleaved",
    "discover_itemset_periods",
    "discover_periodicities",
    "describe_findings",
    "describe_groups",
    "detect_trends",
    "discover_across_granularities",
    "discover_valid_periods",
    "enumerate_rule_splits",
    "feature_predicate",
    "fit_trend",
    "maximal_valid_windows",
    "mine_with_feature",
    "per_unit_frequent_itemsets",
    "prune_constrained_report",
    "prune_rules",
    "prune_temporal_specializations",
    "prune_submultiple_cycles",
    "restrict_database",
    "rule_series",
    "generalization_rate",
    "holdout_split",
    "temporal_jaccard",
    "validate_periodicities",
]
