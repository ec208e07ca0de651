"""Task 2 — discovery of the periodicities of association rules.

Two search spaces are covered:

* **Cyclic periodicities** (period ``p``, offset ``o``): the rule holds in
  (at least ``min_match`` of) the units ``u ≡ o (mod p)``.  With
  ``min_match = 1.0`` this is exactly the cyclic-association-rules notion
  of Özden, Ramaswamy & Silberschatz, whose *cycle pruning* and *cycle
  skipping* optimizations :func:`discover_cyclic_interleaved` reproduces.
* **Calendric periodicities**: the rule holds in (at least ``min_match``
  of) the units matching a calendar pattern, e.g. "every December".

Both consume the per-unit validity sequences of candidate rules; the
generic path (:func:`discover_periodicities`) computes validity everywhere
and post-hoc detects periodicities, while the interleaved path prunes the
search *during* counting.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.apriori import AnyDatabase, generate_candidates
from repro.core.items import Itemset
from repro.core.rulegen import RuleKey
from repro.errors import MiningParameterError
from repro.mining.context import PerUnitCounts, TemporalContext, per_unit_frequent_itemsets
from repro.mining.results import MiningReport, PeriodicityFinding
from repro.mining.rulespace import enumerate_rule_splits, rule_table
from repro.mining.tasks import PeriodicityTask
from repro.obs.trace import tracer_of
from repro.runtime.budget import RunInterrupted, RunMonitor
from repro.temporal.periodicity import CalendricPeriodicity, CyclicPeriodicity

_EPS = 1e-9

Cycle = Tuple[int, int]
"""A cyclic periodicity as (period, absolute offset)."""


def _cycle_columns(
    n_units: int, first_unit: int, max_period: int, min_repetitions: int
) -> List[Tuple[int, int, int, int]]:
    """Every cycle with enough member units inside an ``n_units`` window.

    ``(period, relative_offset, absolute_offset, n_members)`` in
    (period, relative offset) order — the candidate cycles every rule of
    a mine is tested against.
    """
    columns = []
    for period in range(1, max_period + 1):
        for relative in range(min(period, n_units)):
            n_members = len(range(relative, n_units, period))
            if n_members >= min_repetitions:
                columns.append((period, relative, (first_unit + relative) % period, n_members))
    return columns


def _strided_sums(matrix: np.ndarray, columns) -> np.ndarray:
    """Row sums of ``matrix`` over each cycle's member units: ``(m, n_cycles)``.

    One strided column reduction per cycle, for all rows at once.
    """
    sums = np.zeros((matrix.shape[0], len(columns)), dtype=np.int64)
    for column, (period, relative, _, _) in enumerate(columns):
        sums[:, column] = matrix[:, relative::period].sum(axis=1)
    return sums


def cycles_of_sequence(
    valid: np.ndarray,
    first_unit: int,
    max_period: int,
    min_repetitions: int,
    min_match: float,
) -> List[Tuple[Cycle, int, int]]:
    """All qualifying cycles of a validity sequence.

    Args:
        valid: boolean per-unit validity, index 0 = absolute ``first_unit``.
        first_unit: absolute unit index of offset 0.
        max_period: largest period searched.
        min_repetitions: least member units required inside the window.
        min_match: required fraction of member units that are valid.

    Returns:
        ``((period, absolute_offset), n_members, n_valid)`` triples in
        (period, relative offset) order.
    """
    flags = np.asarray(valid, dtype=bool)
    columns = _cycle_columns(len(flags), first_unit, max_period, min_repetitions)
    n_valid = _strided_sums(flags[None], columns)[0].tolist()
    return [
        ((period, offset), n_members, hits)
        for (period, _, offset, n_members), hits in zip(columns, n_valid)
        if hits / n_members >= min_match - _EPS
    ]


def prune_submultiple_cycles(
    cycles: Sequence[Tuple[Cycle, int, int]]
) -> List[Tuple[Cycle, int, int]]:
    """Drop cycles implied by a shorter cycle already present.

    ``(p, o)`` is a *sub-multiple duplicate* when some kept ``(q, r)`` has
    ``q`` dividing ``p`` and ``o ≡ r (mod q)`` — its member units are a
    subset of the shorter cycle's, so it conveys nothing new.
    """
    kept: List[Tuple[Cycle, int, int]] = []
    for entry in sorted(cycles, key=lambda e: (e[0][0], e[0][1])):
        (period, offset), _, _ = entry
        dominated = any(
            period % q == 0 and offset % q == r for (q, r), _, _ in kept
        )
        if not dominated:
            kept.append(entry)
    return kept


def _submultiples(columns, found: np.ndarray) -> np.ndarray:
    """Where a cycle is a sub-multiple duplicate of another found cycle.

    :func:`prune_submultiple_cycles` for all rows at once: a found
    ``(p, o)`` is dropped exactly when some found ``(q, o mod q)`` with
    ``q`` a proper divisor of ``p`` exists — domination is transitive, so
    "by a found cycle" and "by a kept cycle" coincide.
    """
    position = {(period, offset): column for column, (period, _, offset, _) in enumerate(columns)}
    dominated = np.zeros_like(found)
    for column, (period, _, offset, _) in enumerate(columns):
        for divisor in range(1, period):
            shorter = position.get((divisor, offset % divisor)) if period % divisor == 0 else None
            if shorter is not None:
                dominated[:, column] |= found[:, shorter]
    return dominated


def _member_mask(cycle: Cycle, first_unit: int, n_units: int) -> np.ndarray:
    period, offset = cycle
    relative = (offset - first_unit) % period
    mask = np.zeros(n_units, dtype=bool)
    mask[relative::period] = True
    return mask


def _calendar_member_mask(
    periodicity: CalendricPeriodicity, context: TemporalContext
) -> np.ndarray:
    mask = np.zeros(context.n_units, dtype=bool)
    for offset in range(context.n_units):
        if periodicity.matches_unit(context.to_absolute(offset)):
            mask[offset] = True
    return mask


def periodicity_findings(
    key_of: Callable[[int], RuleKey],
    valid: np.ndarray,
    itemset_counts: np.ndarray,
    antecedent_counts: np.ndarray,
    context: TemporalContext,
    task: PeriodicityTask,
) -> Iterator[PeriodicityFinding]:
    """The periodicities of every rule of a ``rules × units`` table.

    ``valid`` and the two count matrices are row-aligned; ``key_of(row)``
    names row ``row``'s rule.  Each cycle is one strided reduction and
    each calendar pattern one masked reduction over all rules; the sums
    behind every measure are integers, so the ratios match the
    per-rule definitions bit for bit.  Findings come rule by rule (table
    order), cycles before calendar patterns, and are built lazily — a
    consumer that stops early builds no more.
    """
    n_units = context.n_units
    granularity = context.granularity
    columns = _cycle_columns(n_units, context.first_unit, task.max_period, task.min_repetitions)
    if task.prune_submultiples:
        columns.sort(key=lambda column: (column[0], column[2]))
    periodicities: List[object] = [
        CyclicPeriodicity(period=period, offset=offset, granularity=granularity)
        for period, _, offset, _ in columns
    ]
    members = [column[3] for column in columns]
    hits = _strided_sums(valid, columns)
    numerators = _strided_sums(itemset_counts, columns)
    antecedents = _strided_sums(antecedent_counts, columns)
    sizes = _strided_sums(context.unit_sizes[None], columns)[0]
    for pattern in task.calendar_patterns:
        periodicity = CalendricPeriodicity(pattern, granularity)
        mask = _calendar_member_mask(periodicity, context)
        n_members = int(np.count_nonzero(mask))
        if n_members < task.min_repetitions:
            continue
        periodicities.append(periodicity)
        members.append(n_members)
        hits = np.column_stack([hits, valid[:, mask].sum(axis=1)])
        numerators = np.column_stack([numerators, itemset_counts[:, mask].sum(axis=1)])
        antecedents = np.column_stack([antecedents, antecedent_counts[:, mask].sum(axis=1)])
        sizes = np.append(sizes, context.unit_sizes[mask].sum())
    found = hits / np.asarray(members, dtype=np.int64) >= task.min_match - _EPS
    if task.prune_submultiples and columns:
        found[:, : len(columns)] &= ~_submultiples(columns, found[:, : len(columns)])
    rows, picked = np.nonzero(found)
    sizes_of = sizes.tolist()
    for row, column, n_valid, numerator, antecedent in zip(
        rows.tolist(),
        picked.tolist(),
        hits[rows, picked].tolist(),
        numerators[rows, picked].tolist(),
        antecedents[rows, picked].tolist(),
    ):
        size = sizes_of[column]
        # Positional in field order: keyword calls cost twice as much here.
        yield PeriodicityFinding(
            key_of(row),
            periodicities[column],
            members[column],
            n_valid,
            n_valid / members[column],
            numerator / size if size else 0.0,
            numerator / antecedent if antecedent else 0.0,
        )


def discover_periodicities(
    database: AnyDatabase,
    task: PeriodicityTask,
    context: Optional[TemporalContext] = None,
    counts: Optional[PerUnitCounts] = None,
    counting: str = "auto",
    monitor: Optional[RunMonitor] = None,
) -> MiningReport:
    """Run Task 2 end to end (generic path: count everywhere, then detect).

    Returns a :class:`MiningReport` of :class:`PeriodicityFinding` records
    sorted by rule then period.  A monitored run that exhausts its budget
    (or is cancelled) stops counting at a granule/pass boundary and
    reports the findings derivable from the completed passes with
    ``partial=True`` (strict mode raises instead).
    """
    monitor = monitor or RunMonitor()
    started = time.perf_counter()
    tracer = tracer_of(monitor)
    if context is None:
        context = TemporalContext(database, task.granularity)
    if counts is None:
        with tracer.span("count", task="periodicities"):
            counts = per_unit_frequent_itemsets(
                context,
                task.thresholds.min_support,
                min_units=task.min_repetitions,
                max_size=task.max_rule_size,
                counting=counting,
                monitor=monitor,
            )
    table = rule_table(
        counts,
        task.thresholds.min_confidence,
        min_valid_units=task.min_repetitions,
        max_consequent_size=task.max_consequent_size,
    )
    findings: List[PeriodicityFinding] = []
    # Detection over already-counted data still runs after a counting
    # stop (it is the partial result); only the rule cap applies here.
    try:
        with tracer.span("detect", candidates=len(table)):
            for finding in periodicity_findings(
                table.key,
                table.valid,
                table.itemset_counts,
                table.antecedent_counts,
                context,
                task,
            ):
                monitor.charge_rule()
                findings.append(finding)
    except RunInterrupted:
        pass
    elapsed = time.perf_counter() - started
    monitor.raise_for_strict()
    return MiningReport(
        task_name="periodicities",
        results=tuple(findings),
        n_transactions=len(database),
        n_units=context.n_units,
        elapsed_seconds=elapsed,
        partial=monitor.stopped,
        diagnostics=monitor.diagnostics(),
    )


# ----------------------------------------------------------------------
# Interleaved algorithm: cycle pruning + cycle skipping
# ----------------------------------------------------------------------


def _sequence_cycles_exact(
    valid: np.ndarray, first_unit: int, max_period: int, min_repetitions: int
) -> Set[Cycle]:
    """Cycles (min_match = 1.0) of a validity sequence, as a set."""
    return {
        cycle
        for cycle, _, _ in cycles_of_sequence(
            valid, first_unit, max_period, min_repetitions, 1.0
        )
    }


def discover_cyclic_interleaved(
    database: AnyDatabase,
    task: PeriodicityTask,
    context: Optional[TemporalContext] = None,
    counting: str = "auto",
    monitor: Optional[RunMonitor] = None,
) -> MiningReport:
    """Optimized cyclic discovery with cycle pruning and cycle skipping.

    Requires ``min_match == 1.0`` and no calendar patterns (the exact
    cyclic setting in which the two optimizations are sound):

    * **cycle pruning** — a candidate itemset can only have cycles common
      to all the cycles of its subsets, so candidates whose inherited
      cycle set is empty are dropped before counting;
    * **cycle skipping** — a candidate is only counted in units belonging
      to one of its still-live candidate cycles.

    Produces exactly the cyclic findings of :func:`discover_periodicities`
    (a property the test suite asserts) while scanning far fewer
    (unit, candidate) pairs.
    """
    monitor = monitor or RunMonitor()
    if task.min_match < 1.0 - _EPS:
        raise MiningParameterError(
            "the interleaved algorithm requires min_match == 1.0"
        )
    if task.calendar_patterns:
        raise MiningParameterError(
            "the interleaved algorithm searches cyclic periodicities only"
        )
    started = time.perf_counter()
    if context is None:
        context = TemporalContext(database, task.granularity)
    thresholds = context.local_min_counts(task.thresholds.min_support)
    n_units = context.n_units
    first_unit = context.first_unit

    counts: Dict[Itemset, np.ndarray] = {}
    itemset_cycles: Dict[Itemset, Set[Cycle]] = {}
    tracer = tracer_of(monitor)
    masks: Dict[Cycle, np.ndarray] = {}

    def members(cycle: Cycle) -> np.ndarray:
        """The member-unit mask of ``cycle``, built once per run."""
        mask = masks.get(cycle)
        if mask is None:
            mask = masks[cycle] = _member_mask(cycle, first_unit, n_units)
        return mask

    def cycle_units(cycles: Set[Cycle]) -> np.ndarray:
        """Union member mask of a set of cycles."""
        mask = np.zeros(n_units, dtype=bool)
        for cycle in cycles:
            mask |= members(cycle)
        return mask

    try:
        # Level 1: one full scan (no skipping possible before cycles exist).
        with tracer.span("pass", k=1):
            for item, row in context.count_items_per_unit(monitor=monitor).items():
                singleton = Itemset((item,))
                support_valid = row >= thresholds
                cycles = _sequence_cycles_exact(
                    support_valid, first_unit, task.max_period, task.min_repetitions
                )
                if cycles:
                    counts[singleton] = row
                    itemset_cycles[singleton] = cycles
            monitor.complete_pass()

        frontier = sorted(itemset_cycles)
        k = 2
        while frontier and (task.max_rule_size == 0 or k <= task.max_rule_size):
            joined = generate_candidates(frontier)
            monitor.charge_candidates(len(joined))
            # Cycle pruning: inherit the intersection of the subsets' cycles.
            candidate_cycles: Dict[Itemset, Set[Cycle]] = {}
            for candidate in joined:
                inherited: Optional[Set[Cycle]] = None
                ok = True
                for subset in candidate.subsets_of_size(k - 1):
                    subset_cycles = itemset_cycles.get(subset)
                    if subset_cycles is None:
                        ok = False
                        break
                    inherited = (
                        set(subset_cycles)
                        if inherited is None
                        else inherited & subset_cycles
                    )
                if ok and inherited:
                    candidate_cycles[candidate] = inherited
            if not candidate_cycles:
                break
            # Cycle skipping: count each candidate only in its live-cycle units.
            candidate_masks = {
                candidate: cycle_units(cycles)
                for candidate, cycles in candidate_cycles.items()
            }
            ordered = list(candidate_cycles)
            with tracer.span("pass", k=k, candidates=len(ordered)):
                per_candidate_counts = context.count_candidates_masked(
                    ordered,
                    np.stack([candidate_masks[candidate] for candidate in ordered]),
                    counting=counting,
                    monitor=monitor,
                )
            # Re-derive surviving cycles from actual counts.  An
            # interruption above leaves this level uncommitted, so
            # ``counts``/``itemset_cycles`` only ever hold exact passes.
            frontier = []
            for candidate, row in per_candidate_counts.items():
                support_valid = (row >= thresholds) & candidate_masks[candidate]
                survivors = {
                    cycle
                    for cycle in candidate_cycles[candidate]
                    if bool(support_valid[members(cycle)].all())
                }
                if survivors:
                    counts[candidate] = row
                    itemset_cycles[candidate] = survivors
                    frontier.append(candidate)
            frontier.sort()
            monitor.complete_pass()
            k += 1
    except RunInterrupted:
        pass

    # Rule phase: a rule's cycles are the itemset's support-cycles filtered
    # by per-unit confidence.  Runs over exact committed passes even after
    # a counting stop; only the rule cap applies.
    findings: List[PeriodicityFinding] = []
    min_confidence = task.thresholds.min_confidence
    interrupted = False
    for itemset in sorted(itemset_cycles):
        if interrupted:
            break
        if len(itemset) < 2:
            continue
        itemset_row = counts[itemset]
        for key in enumerate_rule_splits(itemset, task.max_consequent_size):
            if interrupted:
                break
            antecedent_row = counts.get(key.antecedent)
            if antecedent_row is None:
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                confidence = np.where(
                    antecedent_row > 0,
                    itemset_row / np.maximum(antecedent_row, 1),
                    0.0,
                )
            valid = (itemset_row >= thresholds) & (
                confidence >= min_confidence - 1e-12
            )
            rule_cycles: List[Tuple[Cycle, int, int]] = []
            for cycle in itemset_cycles[itemset]:
                mask = members(cycle)
                n_members = int(np.count_nonzero(mask))
                if n_members < task.min_repetitions:
                    continue
                if bool(valid[mask].all()):
                    rule_cycles.append((cycle, n_members, n_members))
            if task.prune_submultiples:
                rule_cycles = prune_submultiple_cycles(rule_cycles)
            for cycle, n_members, n_valid in rule_cycles:
                try:
                    monitor.charge_rule()
                except RunInterrupted:
                    interrupted = True
                    break
                mask = members(cycle)
                denominator_support = int(context.unit_sizes[mask].sum())
                denominator_confidence = int(antecedent_row[mask].sum())
                numerator = int(itemset_row[mask].sum())
                findings.append(
                    PeriodicityFinding(
                        key=key,
                        periodicity=CyclicPeriodicity(
                            period=cycle[0],
                            offset=cycle[1],
                            granularity=context.granularity,
                        ),
                        n_member_units=n_members,
                        n_valid_units=n_valid,
                        match_ratio=1.0,
                        temporal_support=(
                            numerator / denominator_support
                            if denominator_support
                            else 0.0
                        ),
                        temporal_confidence=(
                            numerator / denominator_confidence
                            if denominator_confidence
                            else 0.0
                        ),
                    )
                )
    elapsed = time.perf_counter() - started
    findings.sort(
        key=lambda f: (
            f.key.antecedent.items,
            f.key.consequent.items,
            f.periodicity.period,  # type: ignore[union-attr]
            f.periodicity.offset,  # type: ignore[union-attr]
        )
    )
    monitor.raise_for_strict()
    return MiningReport(
        task_name="periodicities",
        results=tuple(findings),
        n_transactions=len(database),
        n_units=context.n_units,
        elapsed_seconds=elapsed,
        partial=monitor.stopped,
        diagnostics=monitor.diagnostics(),
    )
