"""Golden snapshots of the incremental refresh decision in ``EXPLAIN``.

Three scenarios over the canonical basket database (21 days → 21 day
units), each locking the ``incremental:`` decision rows the planner
renders under ``SET INCREMENTAL AUTO``:

* **cold** — no per-unit counts cached yet: a full re-mine, annotated
  as a cold start;
* **small dirty fraction** — one appended transaction dirties 1/21
  units (~4.8%), under the 25% threshold: the delta path;
* **large dirty fraction** — appends touch 15/21 units (~71%): AUTO
  falls back to a full re-mine, annotated with the dirty fraction.

Only the ``incremental:`` rows are snapshotted; the plan rows around
them are locked by ``test_golden_explain.py``.  Rewrite intentionally
with ``--update-golden``.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.tml.executor import ExecutionEnvironment, TmlExecutor

from tests.golden.test_golden_mining import canonical_basket_db

MINE = (
    "MINE PERIODS FROM sales AT GRANULARITY day "
    "WITH SUPPORT >= 0.3, CONFIDENCE >= 0.6 "
    "HAVING FREQUENCY >= 0.8, COVERAGE >= 2;"
)
EXPLAIN = "EXPLAIN " + MINE

#: Monday the canonical basket database starts on.
_BASE = datetime(2026, 3, 2)


@pytest.fixture(autouse=True)
def no_env_pins(monkeypatch):
    """Plans must not depend on the environment running the suite."""
    monkeypatch.delenv("REPRO_INCREMENTAL", raising=False)


def _incremental_rows(append_batch) -> dict:
    environment = ExecutionEnvironment(metrics=MetricsRegistry())
    environment.register("sales", canonical_basket_db())
    executor = TmlExecutor(environment)
    executor.execute("SET INCREMENTAL AUTO;")
    if append_batch is not None:
        executor.execute(MINE)  # prime the per-unit count cache
        environment.miner("sales").apply_append(append_batch)
    result = executor.execute(EXPLAIN)
    rows = [
        list(row)
        for row in result.payload.rows
        if str(row[0]).startswith("incremental")
    ]
    assert rows, "EXPLAIN rendered no incremental decision rows"
    return {"rows": rows}


def test_golden_explain_incremental_cold(golden_check):
    golden_check("explain_incremental_cold", _incremental_rows(None))


def test_golden_explain_incremental_small_dirty(golden_check):
    batch = [(_BASE + timedelta(days=3, hours=1), ("bread", "butter"))]
    golden_check("explain_incremental_small_dirty", _incremental_rows(batch))


def test_golden_explain_incremental_large_dirty(golden_check):
    batch = [
        (_BASE + timedelta(days=day, hours=2), ("bread", "milk"))
        for day in range(15)
    ]
    golden_check("explain_incremental_large_dirty", _incremental_rows(batch))
