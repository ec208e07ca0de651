"""The planner's wall-time estimate.

Everything here is a *deterministic* function of :class:`StoreStats` and
:class:`StatementShape` — the same stats and shape always produce the
same estimate, which is what makes ``EXPLAIN`` output snapshotable.
The absolute numbers are rough (constants were fitted against the
``python -m bench`` library workload, not derived); the estimate feeds
``EXPLAIN``, job records and the flight recorder, never a choice.

An estimate has two parts.  The *counting* cost follows the shape of
the bitmap kernel (the ``packed`` kernel AUTO runs, which ``vertical``
shares): a per-unit statement is counted by one segmented call per
pass over one unit-aligned index — an index build over the store's
occurrences, ``candidates x total words`` AND+popcount lanes, and a
per-pass floor; a unitless statement (one Apriori over one segment)
pays the same terms over that segment alone.

The *mining* cost is the Python around the kernel — candidate
generation, thresholding and rule evaluation — and is proportional to
the locally frequent (itemset, unit) cells.

Candidate volume is estimated from a Zipf-flavoured frequent-item count:
under a 1/rank popularity law an item of rank *r* appears in about
``avg_basket / (r · H)`` of the baskets, so ranks up to
``avg_basket / (minsup · H)`` clear the support threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.planner.stats import StoreStats
from repro.temporal.granularity import Granularity

# Fitted primitive costs (seconds per operation), CPython + numpy.
_W_BUILD = 25e-9  # one occurrence inserted into the bitmap index
_W_WORD = 1.2e-9  # one uint64 AND+popcount lane
_W_CAND = 110e-9  # per-candidate Python (zip/dict store), whole-segment kernel
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
    """Derived per-unit workload figures the estimate is made from."""

    n_units: int
    unit_transactions: float
    avg_basket: float
    est_frequent_items: int
    est_candidates: int  # total candidates across passes, per unit
    words_per_unit: float  # uint64 words per bitmap row
    pass_candidates: int  # total candidates across passes, store-wide


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


def estimate_seconds(stats: StoreStats, shape: StatementShape) -> float:
    """Estimated wall seconds of one statement on the bitmap kernel."""
    load = estimate_workload(stats, shape)
    floor = shape.passes * _PASS_FLOOR
    if shape.granularity is None:
        # One Apriori over one segment: an index build, then every
        # candidate's columns ANDed in whole blocks.
        build = load.unit_transactions * load.avg_basket * _W_BUILD
        lanes = _W_CAND + 2.0 * load.words_per_unit * _W_WORD
        counting = build + load.est_candidates * lanes + floor
    else:
        # One segmented call per pass counts every candidate in every
        # unit, so only the index width grows with the unit count: each
        # non-empty unit starts on a fresh word.
        total_words = load.n_units * load.words_per_unit
        build = stats.n_occurrences * _W_BUILD
        counting = build + load.pass_candidates * total_words * _W_WORD + floor
    # The Python around the kernel: candidate generation, thresholding
    # and rule evaluation.
    mining = load.est_candidates * load.n_units * _W_CELL
    return counting + mining
