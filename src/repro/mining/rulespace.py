"""Candidate rule enumeration and per-unit rule validity.

Bridges per-unit itemset counts (:class:`~repro.mining.context.PerUnitCounts`)
to rule-level temporal analysis: every retained itemset of size >= 2 is
split into antecedent/consequent pairs, and each rule's per-unit *validity
sequence* — the boolean vector "does the rule hold in unit u" — is derived
from the counts.  The validity sequence is the single structure both the
valid-period and the periodicity algorithms consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.items import Itemset
from repro.core.rulegen import RuleKey
from repro.mining.context import PerUnitCounts


@dataclass(frozen=True)
class RuleUnitSeries:
    """Per-unit arrays for one candidate rule.

    Attributes:
        key: the rule (X ⇒ Y).
        itemset_counts: per-unit absolute support of X ∪ Y.
        antecedent_counts: per-unit absolute support of X.
        valid: boolean per-unit validity (support and confidence hold).
    """

    key: RuleKey
    itemset_counts: np.ndarray
    antecedent_counts: np.ndarray
    valid: np.ndarray

    def n_valid_units(self) -> int:
        return int(np.count_nonzero(self.valid))

    def temporal_support(self, unit_sizes: np.ndarray, mask: np.ndarray) -> float:
        """Support of X ∪ Y over the transactions of the masked units."""
        denominator = int(unit_sizes[mask].sum())
        if denominator == 0:
            return 0.0
        return float(self.itemset_counts[mask].sum()) / denominator

    def temporal_confidence(self, mask: np.ndarray) -> float:
        """Confidence over the transactions of the masked units."""
        denominator = int(self.antecedent_counts[mask].sum())
        if denominator == 0:
            return 0.0
        return float(self.itemset_counts[mask].sum()) / denominator


def enumerate_rule_splits(
    itemset: Itemset, max_consequent_size: int = 0
) -> Iterator[RuleKey]:
    """All (antecedent, consequent) splits of an itemset.

    Both sides non-empty and disjoint; ``max_consequent_size`` caps |Y|
    (0 = unbounded).

    >>> [str(k) for k in enumerate_rule_splits(Itemset.of(1, 2), 1)]
    ['{2} => {1}', '{1} => {2}']
    """
    items = itemset.items
    size = len(items)
    if size < 2:
        return
    limit = size - 1 if max_consequent_size == 0 else min(max_consequent_size, size - 1)
    for consequent_size in range(1, limit + 1):
        for consequent_items in combinations(items, consequent_size):
            consequent = Itemset(consequent_items)
            antecedent = itemset.difference(consequent)
            yield RuleKey(antecedent=antecedent, consequent=consequent)


def rule_series(
    counts: PerUnitCounts,
    key: RuleKey,
    min_confidence: float,
) -> RuleUnitSeries:
    """Build the per-unit validity series of one rule.

    A rule holds in unit ``u`` when its itemset is locally frequent there
    (per-unit support >= the counts' ``min_support``) and the unit
    confidence meets ``min_confidence``.
    """
    itemset_counts = counts.support_array(key.itemset)
    antecedent_counts = counts.support_array(key.antecedent)
    support_ok = itemset_counts >= counts.thresholds
    with np.errstate(divide="ignore", invalid="ignore"):
        confidence = np.where(
            antecedent_counts > 0,
            itemset_counts / np.maximum(antecedent_counts, 1),
            0.0,
        )
    confidence_ok = confidence >= (min_confidence - 1e-12)
    return RuleUnitSeries(
        key=key,
        itemset_counts=itemset_counts,
        antecedent_counts=antecedent_counts,
        valid=support_ok & confidence_ok,
    )


def candidate_rules(
    counts: PerUnitCounts,
    min_confidence: float,
    min_valid_units: int = 1,
    max_consequent_size: int = 0,
) -> List[RuleUnitSeries]:
    """Every candidate rule holding in at least ``min_valid_units`` units.

    Enumerates splits of all retained itemsets of size >= 2 and filters by
    the validity count — the rule-level temporal prune.
    """
    results: List[RuleUnitSeries] = []
    for itemset in counts.counts:
        if len(itemset) < 2:
            continue
        for key in enumerate_rule_splits(itemset, max_consequent_size):
            series = rule_series(counts, key, min_confidence)
            if series.n_valid_units() >= min_valid_units:
                results.append(series)
    results.sort(key=lambda s: (s.key.antecedent.items, s.key.consequent.items))
    return results
