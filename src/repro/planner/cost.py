"""The planner's cost model.

Everything here is a *deterministic* function of :class:`StoreStats` and
:class:`StatementShape` — the same stats and shape always produce the
same estimates, which is what makes ``EXPLAIN`` output snapshotable.
The absolute numbers are rough (constants were fitted against the
``python -m bench`` library workload, not derived), but only the
*ordering* of backends matters for planning; observed-timing calibration (:mod:`repro.planner.planner`)
corrects persistent model bias at runtime.

An estimate has two parts.  The *counting* cost follows the shape of
the kernels:

* the horizontal backends (``dict``, ``hashtree``) pay per transaction
  and per enumerated subset, once per time unit — they are counted by a
  loop over the units;
* the bitmap backends (``vertical``, ``packed``) count a per-unit
  statement with one segmented call per pass over one unit-aligned
  index, the same for both: an index build over the store's
  occurrences, ``candidates x total words`` AND+popcount lanes, and a
  per-pass floor.  Only on unitless statements (one Apriori over one
  segment) do they differ: ``vertical`` pays a *per-prefix-group*
  Python overhead, ``packed`` roughly double the word lanes.

The *mining* cost is what every backend pays around the kernel —
candidate generation, thresholding and rule evaluation, all Python —
and is proportional to the locally frequent (itemset, unit) cells.

Candidate volume is estimated from a Zipf-flavoured frequent-item count:
under a 1/rank popularity law an item of rank *r* appears in about
``avg_basket / (r · H)`` of the baskets, so ranks up to
``avg_basket / (minsup · H)`` clear the support threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.planner.stats import StoreStats
from repro.temporal.granularity import Granularity

#: Backends the model knows how to score, in presentation order.
COSTED_BACKENDS: Tuple[str, ...] = ("dict", "hashtree", "vertical", "packed")

# Fitted primitive costs (seconds per operation), CPython + numpy.
_W_DICT = 150e-9  # one subset lookup in the candidate dict
_W_HASH = 260e-9  # one hash-tree node visit per (transaction, item)
_W_BUILD = 25e-9  # one occurrence inserted into the bitmap index
_W_WORD = 1.2e-9  # one uint64 AND+popcount lane
_W_CAND = 110e-9  # per-candidate Python (zip/dict store), whole-segment bitmap kernels
_W_GROUP = 5.0e-6  # per prefix-group Python overhead (vertical only)
_W_CELL = 4.5e-7  # mining Python per locally frequent (itemset, unit) cell
_PASS_FLOOR = 30e-6  # fixed per-pass dispatch overhead


@dataclass(frozen=True)
class StatementShape:
    """What the planner knows about a statement before running it."""

    task: str  # "valid_periods" | "periodicities" | "constrained"
    granularity: Optional[Granularity] = None
    min_support: float = 0.1
    interleaved: bool = False
    cacheable: bool = False
    passes: int = 3  # expected Apriori depth

    def to_dict(self) -> Dict[str, object]:
        return {
            "task": self.task,
            "granularity": str(self.granularity) if self.granularity else None,
            "min_support": self.min_support,
            "interleaved": self.interleaved,
            "cacheable": self.cacheable,
        }


@dataclass(frozen=True)
class WorkloadEstimate:
    """Derived per-unit workload figures shared by all backend models."""

    n_units: int
    unit_transactions: float
    avg_basket: float
    est_frequent_items: int
    est_candidates: int  # total candidates across passes, per unit
    words_per_unit: float  # uint64 words per bitmap row
    pass_candidates: int  # total candidates across passes, store-wide


@dataclass(frozen=True)
class BackendCost:
    """One backend's estimated cost for the whole statement."""

    backend: str
    seconds: float
    detail: str = ""
    calibration: float = field(default=1.0, compare=False)

    @property
    def calibrated_seconds(self) -> float:
        return self.seconds * self.calibration


def estimate_workload(stats: StoreStats, shape: StatementShape) -> WorkloadEstimate:
    """Candidate/frequent-item volume estimates for one statement."""
    n_units = max(1, stats.units_spanned(shape.granularity))
    unit_tx = stats.n_transactions / n_units
    basket = stats.avg_basket_size
    n_items = max(1, stats.n_items)
    # Zipf-flavoured frequent-item estimate (see module docstring).
    harmonic = math.log(n_items) + 1.0
    min_support = max(shape.min_support, 1.0 / max(unit_tx, 1.0))
    f1 = min(float(n_items), basket / (min_support * harmonic) + 1.0)
    f1 = max(f1, 1.0)
    pairs = f1 * (f1 - 1.0) / 2.0
    # Pass 2 dominates; later passes decay as the lattice thins out.
    depth = 1.0 + 0.35 * max(shape.passes - 2, 0)
    candidates = f1 + pairs * depth
    # A store-wide pass carries every itemset that is locally frequent in
    # *some* unit.  Over n_units draws around a mean unit count m, the
    # largest reaches about m + sqrt(2 m ln n_units); the mean that just
    # touches the per-unit threshold gives the store-wide support an item
    # needs to enter the pass.
    threshold = min_support * unit_tx
    spread = 2.0 * math.log(n_units)
    mean = ((math.sqrt(spread + 4.0 * threshold) - math.sqrt(spread)) / 2.0) ** 2
    union_f1 = f1
    if mean > 0.0:  # an empty store has no unit counts to spread
        union_f1 = max(
            f1, min(float(n_items), basket * unit_tx / (mean * harmonic) + 1.0)
        )
    pass_candidates = union_f1 + union_f1 * (union_f1 - 1.0) / 2.0 * depth
    return WorkloadEstimate(
        n_units=n_units,
        unit_transactions=unit_tx,
        avg_basket=basket,
        est_frequent_items=int(round(f1)),
        est_candidates=int(round(candidates)),
        words_per_unit=max(1.0, math.ceil(unit_tx / 64.0)),
        pass_candidates=int(round(pass_candidates)),
    )


def _unit_cost(backend: str, load: WorkloadEstimate, shape: StatementShape) -> float:
    """Estimated seconds to count one unit's passes on ``backend``."""
    tx = load.unit_transactions
    basket = load.avg_basket
    candidates = load.est_candidates
    words = load.words_per_unit
    build = tx * basket * _W_BUILD
    if backend == "dict":
        subsets = basket + basket * basket / 2.0
        return tx * subsets * _W_DICT + shape.passes * _PASS_FLOOR
    if backend == "hashtree":
        depth = 1.0 + math.log2(1.0 + candidates)
        return tx * basket * depth * _W_HASH + shape.passes * _PASS_FLOOR
    if backend == "vertical":
        groups = load.est_frequent_items * 1.3 + 1.0
        return (
            build
            + candidates * (_W_CAND + words * _W_WORD)
            + groups * _W_GROUP
            + shape.passes * _PASS_FLOOR
        )
    if backend == "packed":
        # All k columns intersected (~2x the word lanes of vertical's
        # shared-prefix walk) but zero per-group Python overhead.
        return (
            build
            + candidates * (_W_CAND + 2.0 * words * _W_WORD)
            + shape.passes * _PASS_FLOOR
        )
    raise ValueError(f"no cost model for backend {backend!r}")


def _segmented_cost(
    stats: StoreStats, load: WorkloadEstimate, shape: StatementShape
) -> Tuple[float, str]:
    """Seconds (and their breakdown) of the segmented bitmap kernel.

    One call per pass counts every candidate in every unit, so nothing
    here is multiplied by the unit count except the index width: each
    non-empty unit starts on a fresh word.
    """
    total_words = load.n_units * load.words_per_unit
    build = stats.n_occurrences * _W_BUILD
    lanes = load.pass_candidates * total_words * _W_WORD
    floor = shape.passes * _PASS_FLOOR
    detail = (
        f"index {build:.2e}s + {load.pass_candidates} candidates x "
        f"{total_words:.0f} words {lanes:.2e}s + {shape.passes} passes {floor:.2e}s"
    )
    return build + lanes + floor, detail


def backend_costs(
    stats: StoreStats,
    shape: StatementShape,
    calibrations: Optional[Dict[str, float]] = None,
) -> Tuple[BackendCost, ...]:
    """Estimated cost of every modelled backend, model order."""
    load = estimate_workload(stats, shape)
    # The Python around the kernel, the same whichever backend counts.
    mining = load.est_candidates * load.n_units * _W_CELL
    segmented = shape.granularity is not None
    results = []
    for backend in COSTED_BACKENDS:
        if segmented and backend in ("vertical", "packed"):
            counting, detail = _segmented_cost(stats, load, shape)
        else:
            unit = _unit_cost(backend, load, shape)
            counting = load.n_units * unit
            detail = f"{load.n_units} units x {unit:.2e}s/unit"
        results.append(
            BackendCost(
                backend=backend,
                seconds=counting + mining,
                detail=f"{detail} + mining {mining:.2e}s",
                calibration=(calibrations or {}).get(backend, 1.0),
            )
        )
    return tuple(results)

