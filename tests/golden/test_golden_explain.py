"""Golden snapshots of ``EXPLAIN`` output — the planner's public face.

Each test renders ``EXPLAIN MINE ...`` (no mining happens) against a
deterministic dataset and locks the complete row set — statement
properties *and* the planner's rows (backend, cache policy, cost
estimate, workload estimate) — into a JSON snapshot.  Any change to the
cost model, the statistics layer, or the EXPLAIN rendering shows up as a
readable diff; rewrite intentionally with ``--update-golden``.

A plan depends only on the store and the statement, so the snapshots
are deterministic.  ``REPRO_INCREMENTAL`` is cleared so a host
environment cannot pin a refresh mode under the test (the incremental
decision has its own snapshots in ``test_golden_incremental.py``).
"""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.tml.executor import ExecutionEnvironment, TmlExecutor

from tests.golden.test_golden_mining import canonical_basket_db, canonical_quest_db

#: (snapshot suffix, dataset builder) — small vs large synthetic store.
STORES = (
    ("small", canonical_basket_db),
    ("large", canonical_quest_db),
)

EXPLAIN_STATEMENTS = {
    "valid_periods": (
        "EXPLAIN MINE PERIODS FROM sales AT GRANULARITY day "
        "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6 "
        "HAVING FREQUENCY >= 0.8, COVERAGE >= 2;"
    ),
    "periodicities": (
        "EXPLAIN MINE PERIODICITIES FROM sales AT GRANULARITY day "
        "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6 "
        "HAVING PERIOD <= 7, REPETITIONS >= 2;"
    ),
    "constrained": (
        "EXPLAIN MINE RULES FROM sales "
        "DURING PERIOD '2026-03-02' TO '2026-03-09' "
        "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6;"
    ),
}


@pytest.fixture(autouse=True)
def no_env_pins(monkeypatch):
    """Plans must not depend on the environment running the suite."""
    monkeypatch.delenv("REPRO_INCREMENTAL", raising=False)


def _explain_rows(database, statement: str) -> dict:
    environment = ExecutionEnvironment(metrics=MetricsRegistry())
    environment.register("sales", database)
    result = TmlExecutor(environment).execute(statement)
    return {"rows": [list(row) for row in result.payload.rows]}


@pytest.mark.parametrize("store_name,build", STORES, ids=[s for s, _ in STORES])
@pytest.mark.parametrize("task", sorted(EXPLAIN_STATEMENTS))
def test_golden_explain(golden_check, store_name, build, task):
    rows = _explain_rows(build(), EXPLAIN_STATEMENTS[task])
    golden_check(f"explain_{task}_{store_name}", rows)
