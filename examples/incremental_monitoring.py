#!/usr/bin/env python3
"""Incremental monitoring — keep temporal rules fresh as data streams in.

Simulates a store feed arriving day by day.  A
:class:`~repro.mining.TemporalMiner` with ``incremental="on"`` folds each
day's batch in through :meth:`~repro.mining.TemporalMiner.apply_append`
and, when asked for the Task 1 report, re-counts only the days touched
since the last one (see ``docs/incremental.md``); every two weeks the
current findings are exported to CSV.

Run:  python examples/incremental_monitoring.py
"""

import tempfile
from itertools import groupby
from pathlib import Path

from repro.core import TransactionDatabase
from repro.datagen import periodic_dataset
from repro.mining import RuleThresholds, TemporalMiner, ValidPeriodTask
from repro.system.export import write_report
from repro.temporal import Granularity


def main() -> None:
    feed = periodic_dataset(n_transactions=5000, n_days=56, seed=5).database

    task = ValidPeriodTask(
        granularity=Granularity.DAY,
        thresholds=RuleThresholds(min_support=0.35, min_confidence=0.7),
        min_coverage=2,
        max_rule_size=2,
    )
    live = TransactionDatabase(catalog=feed.catalog)
    miner = TemporalMiner(live, incremental="on")

    out_dir = Path(tempfile.mkdtemp(prefix="iqms_monitor_"))
    days = groupby(feed, key=lambda transaction: transaction.timestamp.date())
    for day_number, (_day, transactions) in enumerate(days, start=1):
        miner.apply_append((t.timestamp, t.items.items) for t in transactions)
        if day_number % 14 == 0:
            report = miner.valid_periods(task)
            path = out_dir / f"week{day_number // 7:02d}_rules.csv"
            rows = write_report(report, str(path), live.catalog)
            refreshed = report.plan["refresh"]
            print(
                f"day {day_number:3d}: {len(report)} rules with valid periods "
                f"({rows} period rows, {refreshed['strategy']} refresh of "
                f"{refreshed['dirty_units']}/{refreshed['n_units']} days) "
                f"-> {path.name}"
            )

    final = miner.valid_periods(task)
    print(f"\nfinal report after {final.n_transactions} transactions, "
          f"{final.n_units} days:")
    print(final.format(live.catalog, limit=10))
    print(f"\nexports written to {out_dir}")


if __name__ == "__main__":
    main()
