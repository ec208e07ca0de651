"""The benchmark's datasets, built from public ``repro.datagen`` calls.

Sizes are the issue's shapes scaled so that one library round fits many
times into a 10-second run: ``quest5k`` and ``periodic10k`` keep the
per-day density of Quest 20k / periodic 40k over a year (55 and 110
transactions per day) over 91 days; ``seasonal20k`` is unscaled, and
``svc_stream_append`` runs on ``seasonal4k`` (the size of the service's own
``--demo`` data) so that its contended appends and reads, each paying a
whole-store fingerprint scan, give a few hundred samples in ten seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

from repro.core import TransactionDatabase
from repro.datagen import (
    QuestConfig,
    generate_baskets,
    item_label,
    periodic_dataset,
    seasonal_dataset,
)

START = datetime(2025, 1, 1)


@dataclass(frozen=True)
class Sizing:
    """Input sizes of one run; ``scaled`` shrinks them for the self-tests."""

    quest_transactions: int = 5000
    periodic_transactions: int = 10000
    library_days: int = 91
    seasonal_transactions: int = 20000
    stream_transactions: int = 4000
    interactive_pool: int = 16
    cluster_pool: int = 768
    cold_starts: int = 3
    append_probes: int = 40
    library_append_probes: int = 256

    def scaled(self, factor: float) -> "Sizing":
        if factor >= 1.0:
            return self
        return Sizing(
            quest_transactions=max(600, int(self.quest_transactions * factor)),
            periodic_transactions=max(1200, int(self.periodic_transactions * factor)),
            library_days=max(14, int(self.library_days * factor)),
            seasonal_transactions=max(2000, int(self.seasonal_transactions * factor)),
            stream_transactions=max(2000, int(self.stream_transactions * factor)),
            interactive_pool=max(4, int(self.interactive_pool * factor)),
            cluster_pool=max(8, int(self.cluster_pool * factor)),
            cold_starts=1,
            append_probes=4,
            library_append_probes=4,
        )


def quest_days(n_transactions: int, n_days: int, seed: int) -> TransactionDatabase:
    """Quest T8.I4 baskets spread uniformly over ``n_days`` day units.

    Many small units, so the per-unit counting passes dominate (the E21
    shape).
    """
    config = QuestConfig(
        n_transactions=n_transactions,
        avg_transaction_size=8,
        avg_pattern_size=4,
        n_items=500,
        n_patterns=100,
        seed=seed,
    )
    baskets = generate_baskets(config)
    step = n_days * 86400 / len(baskets)
    database = TransactionDatabase()
    for index, basket in enumerate(baskets):
        database.add(
            START + timedelta(seconds=index * step),
            [item_label(item) for item in basket or (index % config.n_items,)],
        )
    return database


def periodic(n_transactions: int, n_days: int, seed: int) -> TransactionDatabase:
    """Daily data with weekend and first-week-of-month rules embedded."""
    return periodic_dataset(
        n_transactions=n_transactions,
        start=START,
        n_days=n_days,
        quest_seed=seed,
        seed=seed + 1,
    ).database


def seasonal(n_transactions: int, seed: int) -> TransactionDatabase:
    """One year with three seasonal rules; small item universe, cheap mines."""
    return seasonal_dataset(
        n_transactions=n_transactions, quest_seed=seed, seed=seed + 1
    ).database
