"""The traced run: per-layer metrics of one workload.

Three sources, all read at the same boundaries:

* a shortened **live phase** — the workload's own timed loop against the
  real system, bracketed by two scrapes of the public ``/v1/metrics``
  exposition, gives the counts (hit ratios, evictions, transitions,
  proxied ops) and the client-side tail latencies;
* a few **probes against the live server** give what only HTTP can show
  (HTTP overhead over ``run_sync``, scrape cost, the router hop);
* the **in-process probes** of :mod:`bench.layers` replay the ops' calls
  into each layer under benchmark-owned spans, which are written to
  ``bench/out/trace-<workload>.jsonl``.

A layer that is not on the workload's path reads 0 (no router in front
of ``svc_interactive``, no server at all under ``lib_cold_mine``).
"""

from __future__ import annotations

import json
import time
import urllib.request
from typing import Dict, List, Optional

from repro.obs import parse_prometheus_text
from repro.service import ServiceClient

from bench import spec, stats, sut
from bench.datasets import Sizing
from bench.layers import Probes, metric_total
from bench.runner import metric, run_result
from bench.spans import SpanRecorder, self_time_by_name
from bench.workloads import WORKLOADS, Phase, ServiceWorkload

#: Share of ``--seconds`` the live phase takes; the probes need the rest.
LIVE_SHARE = 0.4

PROBE_QUERIES = 40

#: Worker ids of the two-process fleet cluster_routed_reads starts.
FLEET = ("w0", "w1")

#: Read from the live server; 0 where the workload has none.
SERVER_METRICS = (
    "service.cache_hit_ratio", "service.cache_evictions",
    "service.cache_invalidated_per_append", "service.single_flight_waits",
    "service.spill_hit_ratio", "service.journal_transitions",
    "service.scheduler_wait_s", "service.scheduler_run_s", "service.scheduler_rejected",
    "service.http_overhead_ms", "service.acked_writes_lost",
    "obs.metrics_scrape_s", "obs.metrics_bytes", "obs.traced_query_overhead_ratio",
)
CLUSTER_METRICS = (
    "cluster.fleet_start_s", "cluster.router_overhead_ms", "cluster.proxied",
    "cluster.failovers", "cluster.route_spread", "cluster.invalidation_fanout",
)


def scrape(client: ServiceClient) -> Dict[str, Dict[str, float]]:
    return parse_prometheus_text(client.metrics())


def ratio(part: float, rest: float) -> float:
    return part / (part + rest) if part + rest else 0.0


def query_p50(client: ServiceClient, text: str, n: int = PROBE_QUERIES, **kwargs) -> float:
    latencies = []
    for _ in range(n):
        began = time.perf_counter()
        record = client.query(text, **kwargs)
        latencies.append(time.perf_counter() - began)
        if record.get("state") != "done":
            raise sut.BenchError(f"probe query ended {record.get('state')}")
    return stats.median(latencies)


def serving_worker(url: str, text: str) -> Optional[str]:
    """The ``X-Repro-Worker`` a router names for ``text`` (``ServiceClient`` hides headers)."""
    request = urllib.request.Request(
        url + "/v1/query",
        data=json.dumps({"query": text}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        response.read()
        return response.headers.get("X-Repro-Worker")


def server_counts(before, after, phase: Phase, appends: int) -> Dict[str, float]:
    """Per-layer counts from two scrapes around the live phase (and append probe)."""

    def delta(name: str, **labels: str) -> float:
        return metric_total(after, name, **labels) - metric_total(before, name, **labels)

    ops_done = max(1, phase.completed)
    jobs = delta("repro_scheduler_run_seconds_count")
    retired = delta("repro_cache_events_total", event="delta_refresh") + delta(
        "repro_cache_events_total", event="invalidation"
    )
    return {
        "service.cache_hit_ratio": ratio(
            delta("repro_cache_events_total", event="hit"),
            delta("repro_cache_events_total", event="miss"),
        ),
        "service.cache_evictions": delta("repro_cache_events_total", event="eviction") / ops_done,
        "service.cache_invalidated_per_append": retired / appends if appends else 0.0,
        "service.single_flight_waits": delta("repro_cache_single_flight_waits_total"),
        "service.spill_hit_ratio": ratio(
            delta("repro_cache_disk_events_total", event="hit"),
            delta("repro_cache_disk_events_total", event="miss"),
        ),
        "service.journal_transitions": delta("repro_journal_transitions_total") / ops_done,
        "service.scheduler_wait_s": delta("repro_scheduler_wait_seconds_sum") / max(1.0, jobs),
        "service.scheduler_run_s": delta("repro_scheduler_run_seconds_sum") / max(1.0, jobs),
        "service.scheduler_rejected": delta("repro_scheduler_rejected_total"),
        "cluster.proxied": delta("repro_cluster_proxied_total") / ops_done,
        "cluster.failovers": delta("repro_cluster_failovers_total"),
        "cluster.invalidation_fanout": delta("repro_cluster_invalidation_fanout_total"),
        "cluster.route_spread": sum(
            delta("repro_cluster_proxied_total", worker=worker) > 0 for worker in FLEET
        ) / len(FLEET),
    }


def server_probes(workload: ServiceWorkload, out: Dict[str, float]) -> float:
    """What only the live server can show; returns the HTTP warm-hit p50 (s)."""
    client = workload.client()
    text = workload.warm_statements()[0]
    client.query(text)  # a miss if the append probe just retired it
    hit_p50 = query_p50(client, text)
    traced_p50 = query_p50(client, text, n=PROBE_QUERIES // 2, trace=True)
    out["obs.traced_query_overhead_ratio"] = traced_p50 / hit_p50
    scrapes = []
    for _ in range(5):
        began = time.perf_counter()
        text_body = client.metrics()
        scrapes.append(time.perf_counter() - began)
    out["obs.metrics_scrape_s"] = stats.median(scrapes)
    out["obs.metrics_bytes"] = len(text_body.encode("utf-8"))
    if workload.module == "repro.cluster":
        out["cluster.fleet_start_s"] = workload.start_s
        owner = serving_worker(workload.server.url, text)
        urls = {w["id"]: w["url"] for w in client.status()["workers"]}
        direct = ServiceClient(urls[owner], retry_policy=client.retry_policy)
        out["cluster.router_overhead_ms"] = (hit_p50 - query_p50(direct, text)) * 1000.0
    return hit_p50


def loadgen_metrics(phase: Phase, appends: List[float]) -> Dict[str, float]:
    return {
        "loadgen.query_p90_ms": stats.tail_ms_or_zero(phase.query_latencies, 90.0),
        "loadgen.query_p99_ms": stats.tail_ms_or_zero(phase.query_latencies, 99.0),
        "loadgen.append_p99_ms": stats.tail_ms_or_zero(appends, 99.0),
        "loadgen.samples": len(phase.query_latencies) + len(phase.append_latencies),
        "loadgen.client_cpu_share": phase.client_cpu_s / phase.wall_s,
        "loadgen.failed_ratio": phase.failed / max(1, phase.attempted),
    }


def run_traced(name: str, seed: int, seconds: float, sizing: Sizing) -> Dict[str, object]:
    workload = WORKLOADS[name](seed, sizing)
    recorder = SpanRecorder()
    work_dir = sut.make_run_dir()
    out: Dict[str, float] = dict.fromkeys(SERVER_METRICS + CLUSTER_METRICS, 0.0)
    try:
        workload.cold_start()
        workload.warm_up()
        served = isinstance(workload, ServiceWorkload)
        before = scrape(workload.client()) if served else None
        phase = workload.timed_phase(max(1.0, seconds * LIVE_SHARE))
        live_p50 = stats.median(phase.query_latencies)
        appends = list(phase.append_latencies)
        streams = bool(appends)
        hit_p50 = 0.0
        if served:
            if not streams:
                # Checks before the append probe: it grows the store.
                workload.final_checks(phase)
                appends = workload.append_probe()
            out.update(server_counts(before, scrape(workload.client()), phase, len(appends)))
            hit_p50 = server_probes(workload, out)
            if streams:
                # Last: the durability check kills the server.
                workload.final_checks(phase)
            out["service.acked_writes_lost"] = workload.acked_writes_lost

        probes = Probes(workload.scenario(), recorder, work_dir)
        probes.columnar_and_core()
        staged_s, facade_s = probes.mining_planner_runtime()
        staged = probes.tml_and_service(probes.db())
        probes.rank_workers(FLEET)
        probes.incremental()
        out.update(probes.out)
        if served:
            out["service.http_overhead_ms"] = (hit_p50 - out["service.run_sync_hit_s"]) * 1000.0
            # The median op is a hit wherever the cache can serve, a miss on the stream.
            kind = "hit" if out["service.cache_hit_ratio"] >= 0.5 else "miss"
            explained = sum(
                value for key, value in staged.items() if key.startswith(f"{kind}:")
            )
            out["trace.coverage_ratio"] = explained / live_p50
            out["trace.overhead_ratio"] = 0.0
        else:
            out["trace.coverage_ratio"] = (
                facade_s - out["mining.engine_overhead_s"]
            ) / facade_s
            out["trace.overhead_ratio"] = staged_s / facade_s
            appends = workload.append_probe()
        out.update(loadgen_metrics(phase, appends))

        recorder.write(sut.OUT_DIR / f"trace-{name}.jsonl")
        units = spec.per_layer_units()
        if set(out) != set(units):
            raise sut.BenchError(
                f"per-layer metrics drifted from spec: {sorted(set(out) ^ set(units))}"
            )
        return run_result(
            name, seed, seconds, phase,
            {key: metric(float(out[key]), units[key]) for key in units},
            self_time_s=self_time_by_name(recorder.spans),
        )
    finally:
        workload.close()
        sut.remove_run_dir(work_dir)
