"""E18 — telemetry overhead and live exposition.

The telemetry subsystem's contract is "observability you can leave on":
metrics accumulate locally in the run monitor and flush at pass
boundaries, tracing is a no-op ``NULL_TRACER`` attribute read when off.
Two measurements pin that:

* **overhead** — the same valid-periods task mined three ways: a
  registry-less :class:`TemporalMiner` (its runs' monitors flush into
  the process-wide default registry); a miner on an injected registry
  with an explicit monitor on it; that plus span tracing.  Both miners
  sit on one encoding, so they share its warmed unit index and differ
  only in the telemetry each leg asks for.  The headline number is the
  enabled-vs-disabled wall-clock ratio, targeted < 3% mean overhead
  (asserted loosely at 25% — CI machines are noisy; the honest number
  lives in ``BENCH_e18.json``).
* **live scrape** — a real service + HTTP server runs mining jobs while
  ``GET /v1/metrics`` is scraped; the exposition must parse strictly
  and show nonzero mining-pass, cache and scheduler series.
"""

import time

import pytest

from benchmarks.conftest import emit
from repro.mining.engine import TemporalMiner
from repro.mining.tasks import RuleThresholds, ValidPeriodTask
from repro.obs.metrics import MetricsRegistry, parse_prometheus_text
from repro.runtime.budget import RunMonitor
from repro.service.client import ServiceClient
from repro.service.core import MiningService, ServiceConfig
from repro.service.http import start_server
from repro.temporal.granularity import Granularity

DATASET_SIZE = 12000
REPEATS = 9

MINE_QUERY = (
    "MINE PERIODS FROM transactions AT GRANULARITY month "
    "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6 HAVING COVERAGE >= 2;"
)


@pytest.fixture(scope="module")
def bench_db():
    from repro.datagen import seasonal_dataset

    return seasonal_dataset(n_transactions=DATASET_SIZE).database


def _task():
    return ValidPeriodTask(
        granularity=Granularity.MONTH,
        thresholds=RuleThresholds(min_support=0.2, min_confidence=0.6),
    )


def _time_legs(task, legs):
    """Best-of-N wall time per leg, legs interleaved within each round.

    Interleaving cancels slow machine drift (thermal, cache, GC) that
    would otherwise bias whichever leg happens to run last; min is the
    estimator least sensitive to OS noise.
    """
    samples = {name: [] for name, _, _ in legs}
    for _ in range(REPEATS):
        for name, miner, make_kwargs in legs:
            trace, kwargs = make_kwargs()
            miner.set_trace(trace)
            started = time.perf_counter()
            miner.valid_periods(task, **kwargs)
            samples[name].append(time.perf_counter() - started)
            miner.set_trace(False)
    return {name: min(times) for name, times in samples.items()}


def test_e18_metrics_overhead(bench_db):
    task = _task()
    registry = MetricsRegistry()
    plain = TemporalMiner(bench_db)
    metered = TemporalMiner(bench_db, metrics=registry)
    plain.valid_periods(task)  # build the encoding's unit index both share
    timings = _time_legs(
        task,
        [
            ("disabled", plain, lambda: (False, {})),
            (
                "metrics",
                metered,
                lambda: (False, {"monitor": RunMonitor(metrics=registry)}),
            ),
            (
                "traced",
                metered,
                lambda: (True, {"monitor": RunMonitor(metrics=registry)}),
            ),
        ],
    )

    disabled = timings["disabled"]
    enabled = timings["metrics"]
    traced = timings["traced"]
    overhead = enabled / disabled - 1.0
    traced_overhead = traced / disabled - 1.0
    emit(
        "E18",
        "leg=overhead",
        f"disabled_s={disabled:.4f}",
        f"metrics_s={enabled:.4f}",
        f"traced_s={traced:.4f}",
        f"metrics_overhead={overhead * 100:.2f}%",
        f"traced_overhead={traced_overhead * 100:.2f}%",
    )
    # Target: < 3% mean on a quiet machine.  Asserted loosely so a noisy
    # CI neighbour cannot flake the suite; the recorded number is the
    # deliverable.
    assert overhead < 0.25, (
        f"metrics-enabled mining {overhead * 100:.1f}% slower than disabled"
    )
    assert registry.snapshot()["repro_mining_passes_total"] > 0


def test_e18_live_scrape_during_mining(bench_db):
    service = MiningService(
        config=ServiceConfig(workers=2, metrics=MetricsRegistry())
    )
    server = None
    try:
        service.load_database(bench_db)
        server, _ = start_server(service)
        client = ServiceClient(server.url)

        submitted = client.query_async(MINE_QUERY)
        scrapes = 0
        while True:
            parse_prometheus_text(client.metrics())  # strict: raises on junk
            scrapes += 1
            record = client.job(submitted["job_id"])
            if record["state"] in ("done", "failed", "cancelled"):
                assert record["state"] == "done", record
                break
            time.sleep(0.02)
        client.query(MINE_QUERY)  # cache hit → nonzero hit series

        parsed = parse_prometheus_text(client.metrics())
        passes = parsed["repro_mining_passes_total"][""]
        cache_events = sum(parsed["repro_cache_events_total"].values())
        jobs_done = parsed["repro_scheduler_jobs_total"]['{state="done"}']
        assert passes > 0 and cache_events > 0 and jobs_done >= 2
        emit(
            "E18",
            "leg=live_scrape",
            f"scrapes={scrapes}",
            f"families={len(parsed)}",
            f"passes_total={passes:.0f}",
            f"cache_events={cache_events:.0f}",
            f"jobs_done={jobs_done:.0f}",
        )
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()
        service.close()
