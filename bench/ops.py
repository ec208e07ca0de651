"""Seeded op sequences: everything a client sends derives from ``--seed``.

Each client of each workload draws from its own ``random.Random`` keyed
by ``(seed, workload, client)``, so equal seeds replay byte-identical
sequences and the two closed-loop clients never share a stream.  A
sequence is endless; the timed phase consumes it until its time is up.
"""

from __future__ import annotations

import itertools
import random
from datetime import datetime, timedelta
from typing import Dict, Iterator, List, Sequence, Tuple

CONFIDENCE = 0.6

#: Share of svc_interactive ops that are canonically new (cold) statements.
NEW_STATEMENT_SHARE = 0.10

APPEND_BATCH_ROWS = 16

#: Item labels appended rows draw from: the seasonal rules' items plus a
#: few background items, so appends can complete or break a rule's week.
APPEND_ITEMS = (
    "season0_a", "season0_b", "season1_a", "season1_b",
    "season2_a", "season2_b", "i0003", "i0017", "i0042", "i0101",
)

#: svc_stream_append's reader cycles these; each follows a fingerprint
#: change, so none can be served from the result cache.
STREAM_READ_SUPPORTS = (0.15, 0.20, 0.25, 0.30)

#: The library round: (dataset, task kind, granularity); order is shuffled
#: per round from the seed.
LIBRARY_ROUND = (
    ("quest", "valid_periods", "day"),
    ("periodic", "valid_periods", "day"),
    ("periodic", "valid_periods", "week"),
    ("periodic", "periodicities", "day"),
    ("periodic", "with_feature", "day"),
)

Op = Dict[str, object]


def _rng(seed: int, workload: str, client: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{client}")


def mine_periods(granularity: str, support: float) -> str:
    return (
        f"MINE PERIODS FROM transactions AT GRANULARITY {granularity} "
        f"WITH SUPPORT >= {support:.6f}, CONFIDENCE >= {CONFIDENCE};"
    )


def statement_pool(size: int) -> List[str]:
    """``size`` distinct month/week statements, supports 0.15 .. 0.30.

    Pool order is rank order: svc_interactive draws uniformly, the
    cluster workload draws Zipf with ``pool[0]`` the hottest.
    """
    step = 0.15 / max(1, (size + 1) // 2)
    return [
        mine_periods(("month", "week")[index % 2], 0.15 + (index // 2) * step)
        for index in range(size)
    ]


def new_statement(client: int, n_clients: int, counter: int) -> str:
    """A month statement no pool entry and no earlier op canonicalizes to."""
    return mine_periods("month", 0.31 + (counter * n_clients + client + 1) * 1e-6)


def interactive(seed: int, client: int, pool: Sequence[str], n_clients: int = 2) -> Iterator[Op]:
    """90% uniform repeats from the primed pool, 10% new cold statements."""
    rng = _rng(seed, "svc_interactive", client)
    fresh = itertools.count()
    while True:
        if rng.random() < NEW_STATEMENT_SHARE:
            yield {"kind": "query", "text": new_statement(client, n_clients, next(fresh)),
                   "primed": False}
        else:
            yield {"kind": "query", "text": rng.choice(pool), "primed": True}


def routed_reads(seed: int, client: int, pool: Sequence[str]) -> Iterator[Op]:
    """Zipf(s=1.0) over the primed pool: hot head, long tail."""
    rng = _rng(seed, "cluster_routed_reads", client)
    cumulative = list(itertools.accumulate(1.0 / rank for rank in range(1, len(pool) + 1)))
    while True:
        yield {"kind": "query", "text": rng.choices(pool, cum_weights=cumulative)[0],
               "primed": True}


def stream_reads() -> Iterator[Op]:
    for support in itertools.cycle(STREAM_READ_SUPPORTS):
        yield {"kind": "query", "text": mine_periods("week", support), "primed": False}


def append_batches(seed: int, workload: str, after: datetime) -> Iterator[Op]:
    """In-order tail batches with seeded contents and idempotency keys."""
    rng = _rng(seed, workload, 0)
    stamp = after
    for number in itertools.count():
        rows: List[Tuple[str, List[str]]] = []
        for _ in range(APPEND_BATCH_ROWS):
            stamp += timedelta(seconds=rng.randint(1, 600))
            rows.append(
                (stamp.isoformat(), sorted(rng.sample(APPEND_ITEMS, rng.randint(2, 4))))
            )
        yield {"kind": "append", "key": f"bench-{seed}-{workload}-{number}", "rows": rows}


def library_rounds(seed: int) -> Iterator[List[Tuple[str, str, str]]]:
    """The five statements of one IQMI round, in a seeded order."""
    rng = _rng(seed, "lib_cold_mine", 0)
    while True:
        order = list(LIBRARY_ROUND)
        rng.shuffle(order)
        yield order


def head(sequence: Iterator, n: int) -> List:
    return list(itertools.islice(sequence, n))
