"""Every mining run is serial: no layer reaches the sharded executor.

The library facade, the TML executor (``EXPLAIN`` and ``EXPLAIN
ANALYZE`` included) and the mining service all count in-process.  No
worker count can be set on a miner, ``SET WORKERS`` still parses and
renders but is rejected when run, and no plan renders a worker or shard
row.  Scaling out is the cluster tier's job (``repro-cluster``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.errors import TmlExecutionError
from repro.mining import TemporalMiner
from repro.service import MiningService, ServiceConfig
from repro.tml import ExecutionEnvironment, TmlExecutor, parse_statement

SRC = Path(__file__).resolve().parents[2] / "src"

MINE = (
    "MINE PERIODS FROM sales AT GRANULARITY month "
    "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6;"
)
SET_WORKERS = ("SET WORKERS 4;", "SET WORKERS AUTO;", "SET WORKERS OFF;")

#: Mines every task, runs a TML session and serves a query and an
#: append, then prints the ``repro.parallel`` modules that got imported.
_EVERY_LAYER = textwrap.dedent(
    """
    import json, sys
    from repro.datagen import seasonal_dataset
    from repro.mining import (
        ConstrainedTask, PeriodicityTask, RuleThresholds, TemporalMiner,
        ValidPeriodTask,
    )
    from repro.service import MiningService, ServiceConfig
    from repro.temporal import Granularity, TimeInterval
    from repro.tml import ExecutionEnvironment, TmlExecutor

    db = seasonal_dataset(n_transactions=600, n_seasonal_rules=1).database
    thresholds = RuleThresholds(min_support=0.2, min_confidence=0.6)
    month = Granularity.MONTH
    miner = TemporalMiner(db)
    miner.valid_periods(ValidPeriodTask(month, thresholds))
    cyclic = PeriodicityTask(month, thresholds, max_period=4)
    miner.periodicities(cyclic)
    miner.periodicities(cyclic, interleaved=True)
    start, end = db.time_span()
    miner.with_feature(
        ConstrainedTask(TimeInterval(start, start + (end - start) / 2), thresholds)
    )

    environment = ExecutionEnvironment()
    environment.register("sales", db)
    executor = TmlExecutor(environment)
    mine = {mine!r}
    for prefix in ("", "EXPLAIN ", "EXPLAIN ANALYZE "):
        executor.execute(prefix + mine)

    service = MiningService(sys.argv[1], ServiceConfig(workers=1))
    try:
        service.load_database(db)
        query = mine.replace("FROM sales", "FROM transactions")
        assert service.run_sync(query).state == "done"
        service.append_transactions([(end, ["season0_a", "season0_b"])])
        assert service.run_sync(query).state == "done"
    finally:
        service.close()
    print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro.parallel"))))
    """
).format(mine=MINE)


def test_no_layer_imports_the_parallel_package(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", _EVERY_LAYER, str(tmp_path / "store.db")],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1]) == []


@pytest.mark.parametrize("text", SET_WORKERS)
def test_set_workers_round_trips_but_never_runs(text, tmp_path):
    statement = parse_statement(text)
    assert statement.render() == text
    assert parse_statement(statement.render()) == statement

    messages = set()
    for _ in range(2):
        with pytest.raises(TmlExecutionError) as info:
            TmlExecutor(ExecutionEnvironment()).execute(text)
        messages.add(str(info.value))
    (message,) = messages
    assert "repro-cluster" in message
    with pytest.raises(TmlExecutionError) as other:
        TmlExecutor(ExecutionEnvironment()).execute(SET_WORKERS[0])
    assert str(other.value) == message  # one error for every form

    service = MiningService(str(tmp_path / "store.db"), ServiceConfig(workers=1))
    try:
        job = service.run_sync(text)
    finally:
        service.close()
    assert job.state == "failed"
    assert "SET statements are not supported" in job.error


def test_miner_takes_no_worker_count(seasonal_data):
    with pytest.raises(TypeError):
        TemporalMiner(seasonal_data.database, workers=2)


@pytest.mark.parametrize("prefix", ["EXPLAIN ", "EXPLAIN ANALYZE "])
def test_explain_renders_no_fan_out_rows(seasonal_data, prefix):
    environment = ExecutionEnvironment()
    environment.register("sales", seasonal_data.database)
    rows = TmlExecutor(environment).execute(prefix + MINE).payload.rows
    names = [str(name) for name, _ in rows]
    assert "plan: backend" in names
    assert not [n for n in names if n.startswith(("plan: workers", "plan: shards"))]
