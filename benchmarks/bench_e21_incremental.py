"""E21 — delta-maintained refresh vs full re-mine after a streamed append.

A |D|=20k Quest year is mined once, then a batch of new transactions
lands in a small set of days (the *dirty fraction* of the 365 day
units).  The incremental miner folds the batch into its encoded layout
(:func:`~repro.incremental.csr.append_encoded`) and re-counts only the
dirty units against its cached per-unit rows; the baseline rebuilds a
miner over the final database and re-mines everything.  Both sides are
asserted bit-identical before any time is compared.

The acceptance bar (ISSUE 8): at a 5% dirty fraction the delta path is
at least ``MIN_SPEEDUP_AT_5PCT``x faster than the full re-mine — the
measured margin is ~6-8x.  A sweep over dirty fractions records how the
advantage decays as appends touch more of the span (at 100% dirty the
delta path degenerates to a full recount plus splice overhead, which is
why AUTO falls back to a full refresh beyond its threshold).
"""

import random
import time
from datetime import datetime, timedelta

import pytest

from benchmarks.bench_e6_sizeup import config_for
from benchmarks.conftest import emit
from repro.core import TransactionDatabase
from repro.datagen import generate_baskets
from repro.mining import RuleThresholds, TemporalMiner, ValidPeriodTask
from repro.temporal import Granularity

N_TRANSACTIONS = 20000
N_DAYS = 365
MIN_SPEEDUP_AT_5PCT = 5.0
#: Appended transactions per dirty day (a realistic trickle, not a bulk
#: reload — the delta path's target workload).
ROWS_PER_DIRTY_DAY = 3
ACCEPTANCE_FRACTION = 0.05
SWEEP_FRACTIONS = (0.01, 0.05, 0.20)

TASK = ValidPeriodTask(
    granularity=Granularity.DAY,
    thresholds=RuleThresholds(0.08, 0.6),
    min_coverage=2,
    max_rule_size=3,
)

_START = datetime(2025, 1, 1)


@pytest.fixture(scope="module")
def year_rows():
    """20k Quest baskets spread uniformly over one year."""
    config = config_for(N_TRANSACTIONS)
    baskets = generate_baskets(config)
    step = N_DAYS * 86400 / len(baskets)
    rows = []
    for index, basket in enumerate(baskets):
        if not basket:
            basket = (index % config.n_items,)
        rows.append((_START + timedelta(seconds=index * step), basket))
    return rows


def _build(rows, extra=()):
    db = TransactionDatabase()
    for timestamp, items in rows:
        db.add(timestamp, items)
    for timestamp, items in extra:
        db.add(timestamp, items)
    return db


def _append_batch(fraction, seed=7):
    """Appends touching ``fraction`` of the year's day units."""
    rng = random.Random(seed)
    n_dirty = max(1, round(fraction * N_DAYS))
    batch = []
    for day in sorted(rng.sample(range(N_DAYS), n_dirty)):
        for hour in range(ROWS_PER_DIRTY_DAY):
            items = tuple(sorted(rng.sample(range(500), 6)))
            batch.append((_START + timedelta(days=day, hours=8 + hour), items))
    return batch, n_dirty


def _measure(rows, fraction):
    """(delta seconds, full seconds, dirty units, report sizes) at one
    dirty fraction; results are asserted bit-identical first."""
    batch, n_dirty = _append_batch(fraction)

    warm_miner = TemporalMiner(_build(rows), counting="packed", incremental="on")
    warm_miner.valid_periods(TASK)  # prime the per-unit count cache
    started = time.perf_counter()
    warm_miner.apply_append(batch)  # the fold is part of the delta cost
    warm = warm_miner.valid_periods(TASK)
    delta_seconds = time.perf_counter() - started

    full_seconds = float("inf")
    cold = None
    for _ in range(2):  # best-of-2: the baseline gets the benefit of doubt
        # A fresh database per round: a full re-mine after an append has
        # to re-encode, and the second round must not find the first
        # round's encoding memoized on the database.
        final_db = _build(rows, extra=batch)
        started = time.perf_counter()
        cold_miner = TemporalMiner(final_db, counting="packed", incremental="off")
        cold = cold_miner.valid_periods(TASK)
        full_seconds = min(full_seconds, time.perf_counter() - started)

    assert warm.results == cold.results  # identical before any timing talk
    return delta_seconds, full_seconds, n_dirty, len(warm.results)


def test_e21_acceptance_5pct_dirty(year_rows):
    """The headline cell: 5% dirty must be >= 5x over full re-mine."""
    delta_s, full_s, n_dirty, findings = _measure(year_rows, ACCEPTANCE_FRACTION)
    speedup = full_s / delta_s
    emit(
        "E21",
        f"D={N_TRANSACTIONS}",
        f"dirty={n_dirty}/{N_DAYS}",
        f"delta_s={delta_s:.3f}",
        f"full_s={full_s:.3f}",
        f"speedup={speedup:.1f}x",
        f"findings={findings}",
    )
    assert speedup >= MIN_SPEEDUP_AT_5PCT


@pytest.mark.parametrize("fraction", SWEEP_FRACTIONS)
def test_e21_dirty_fraction_sweep(year_rows, fraction):
    """How the delta advantage decays as appends touch more units."""
    delta_s, full_s, n_dirty, findings = _measure(year_rows, fraction)
    emit(
        "E21",
        f"sweep dirty_fraction={fraction:.2f}",
        f"dirty={n_dirty}/{N_DAYS}",
        f"delta_s={delta_s:.3f}",
        f"full_s={full_s:.3f}",
        f"speedup={full_s / delta_s:.1f}x",
        f"findings={findings}",
    )
    # Even deep into the span the delta path must never *lose* to a
    # from-scratch rebuild by more than noise.
    assert delta_s <= full_s * 1.5
