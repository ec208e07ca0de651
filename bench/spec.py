"""What the benchmark declares: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root is the machine-readable copy
of this module (``benchmark_json()``); a self-test keeps the two equal.
The ``moves`` column — which end-to-end metric, on which workload, a
per-layer metric should move — has no place in that schema and lives
only here and in ``python -m bench list``.

Abbreviations: Q=query_p50_ms A=append_p50_ms T=throughput_ops_s
C=cpu_s_per_op M=peak_rss_mb S=setup_s; L/I/W/R = lib_cold_mine /
svc_interactive / svc_stream_append / cluster_routed_reads.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

RUN_SECONDS = 10
COMMAND = ["python3", "-m", "bench"]
PATHS = ["bench"]

WORKLOADS: List[Tuple[str, str]] = [
    (
        "lib_cold_mine",
        "Library facade only, 1 caller: counting does nearly all the work and "
        "db/tml/service/cluster none, so a kernel change shows here alone.",
    ),
    (
        "svc_interactive",
        "One server, 2 clients, 90% repeats from a 16-statement pool that fits the "
        "cache: HTTP, journal, cache, plan and serialize dominate, kernels do not.",
    ),
    (
        "svc_stream_append",
        "Appends beside reads on one server: every read follows a fingerprint change, "
        "so invalidation, the store lock and the incremental fold are what is paid.",
    ),
    (
        "cluster_routed_reads",
        "Zipf reads through the router over 768 statements, more than the workers' "
        "memory caches hold: the proxy hop and the shared disk tier do the work.",
    ),
]

#: (name, unit, better, bound)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("append_p50_ms", "ms", "lower", 0.25),
    ("throughput_ops_s", "ops/s", "higher", 0.25),
    ("cpu_s_per_op", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: (name, unit, better, moves)
PER_LAYER: List[Tuple[str, str, str, str]] = [
    # columnar
    ("columnar.encode_s", "s", "lower", "Q,T,C@L"),
    ("columnar.vertical_build_s", "s", "lower", "Q,T,C@L"),
    ("columnar.index_bytes", "B/tx", "lower", "M@L,I"),
    ("columnar.count_pass2.dict_s", "s", "lower", "Q,T,C@L; flat on Q@I,R"),
    ("columnar.count_pass2.hashtree_s", "s", "lower", "Q,T,C@L; flat on Q@I,R"),
    ("columnar.count_pass2.vertical_s", "s", "lower", "Q,T,C@L; flat on Q@I,R"),
    ("columnar.count_pass2.packed_s", "s", "lower", "Q,T,C@L; flat on Q@I,R"),
    ("columnar.count_pass3.vertical_s", "s", "lower", "Q,T,C@L; flat on Q@I,R"),
    ("columnar.count_pass3.packed_s", "s", "lower", "Q,T,C@L; flat on Q@I,R"),
    # mining
    ("mining.context_build_s", "s", "lower", "Q,T,C@L"),
    ("mining.count_s", "s", "lower", "Q,T,C@L (>=90% share); <=25% of T@I"),
    ("mining.passes", "count", "lower", "Q@L"),
    ("mining.candidates", "count", "lower", "Q,C@L"),
    ("mining.useful_ratio", "ratio", "higher", "Q,C@L"),
    ("mining.rulegen_s", "s", "lower", "Q@L"),
    ("mining.rule_candidates", "count", "lower", "Q@L"),
    ("mining.emit_s", "s", "lower", "Q@L"),
    ("mining.rules_emitted", "count", "higher", "none (answer size)"),
    ("mining.task_p_s", "s", "lower", "Q,T@L"),
    ("mining.task_cf_s", "s", "lower", "Q,T@L"),
    ("mining.engine_overhead_s", "s", "lower", "Q@L"),
    # core
    ("core.generate_candidates_s", "s", "lower", "Q@L"),
    ("core.generate_rules_s", "s", "lower", "Q@L"),
    # planner
    ("planner.stats_s", "s", "lower", "Q@I (every cold op), Q@L"),
    ("planner.plan_s", "s", "lower", "Q@I (every cold op), Q@L"),
    ("planner.est_over_actual_ratio", "ratio", "lower", "none (calibration)"),
    # parallel
    ("parallel.pool_start_s", "s", "lower", "none today (planner stays serial)"),
    ("parallel.w2_count_s", "s", "lower", "none today; T@L once parallel"),
    ("parallel.w2_speedup", "ratio", "higher", "none today; T@L once parallel"),
    # incremental
    ("incremental.append_encoded_s", "s", "lower", "A,Q@W; A@L"),
    ("incremental.delta_refresh_s", "s", "lower", "Q,T@W; flat on L,I,R"),
    ("incremental.full_remine_s", "s", "lower", "Q@W when AUTO falls back"),
    ("incremental.dirty_units", "count", "lower", "Q@W"),
    ("incremental.fallbacks", "count", "lower", "Q@W"),
    # db
    ("db.save_database_s", "s", "lower", "S@I,W,R"),
    ("db.load_encoded_s", "s", "lower", "S@I,W,R"),
    ("db.fingerprint_cold_s", "s", "lower", "A@W,I,R"),
    ("db.fingerprint_warm_s", "s", "lower", "Q@I"),
    ("db.append_batch_s", "s", "lower", "A@W,I,R"),
    ("db.bytes_per_tx", "B", "lower", "S@I,W,R"),
    ("db.wal_bytes_per_append", "B", "lower", "A@W"),
    # tml
    ("tml.parse_s", "s", "lower", "Q@I,R (per-request fixed cost)"),
    ("tml.canonicalize_s", "s", "lower", "Q@I,R (per-request fixed cost)"),
    ("tml.execute_s", "s", "lower", "Q@I (cold ops), Q@W"),
    # service: cache
    ("service.cache_key_s", "s", "lower", "Q,T,C@I"),
    ("service.cache_get_s", "s", "lower", "Q,T,C@I"),
    ("service.cache_put_s", "s", "lower", "Q@I (cold ops), Q@W"),
    ("service.cache_hit_ratio", "ratio", "higher", "~0.9@I, ~0@W must hold"),
    ("service.cache_evictions", "count", "lower", "Q@R"),
    ("service.cache_invalidated_per_append", "count", "lower", "A@W,I,R"),
    ("service.single_flight_waits", "count", "lower", "Q@I"),
    # service: spill tier
    ("service.spill_get_s", "s", "lower", "Q@R (the slow tail)"),
    ("service.spill_put_s", "s", "lower", "S@R; Q@I (cold ops)"),
    ("service.spill_hit_ratio", "ratio", "higher", "non-zero@R must hold"),
    ("service.spill_bytes_per_entry", "B", "lower", "Q@R"),
    # service: journal
    ("service.journal_admit_s", "s", "lower", "Q,T,C@I"),
    ("service.journal_finish_s", "s", "lower", "Q,T,C@I"),
    ("service.journal_append_intent_s", "s", "lower", "A@W"),
    ("service.journal_transitions", "count", "lower", "Q@I"),
    ("service.journal_bytes_per_op", "B", "lower", "Q@I"),
    # service: scheduler
    ("service.scheduler_wait_s", "s", "lower", "Q@I (rises before T stops rising)"),
    ("service.scheduler_run_s", "s", "lower", "Q,T@I"),
    ("service.scheduler_rejected", "count", "lower", "failed ops@I"),
    # service: serialize and whole ops
    ("service.serialize_s", "s", "lower", "Q,T,C@I"),
    ("service.response_bytes", "B", "lower", "Q@I,R"),
    ("service.run_sync_hit_s", "s", "lower", "Q@I"),
    ("service.run_sync_miss_s", "s", "lower", "Q@I (cold ops), Q@W"),
    ("service.append_s", "s", "lower", "A@W,I,R"),
    ("service.http_overhead_ms", "ms", "lower", "Q,T,C@I"),
    ("service.acked_writes_lost", "count", "lower", "must be 0@W"),
    # cluster
    ("cluster.fleet_start_s", "s", "lower", "S@R"),
    ("cluster.router_overhead_ms", "ms", "lower", "Q,T,C@R; flat on I"),
    ("cluster.rank_workers_s", "s", "lower", "Q@R"),
    ("cluster.proxied", "count", "higher", "T@R"),
    ("cluster.failovers", "count", "lower", "expect 0@R"),
    ("cluster.route_spread", "ratio", "higher", "T@R"),
    ("cluster.invalidation_fanout", "count", "lower", "expect 0 on reads@R; A@R"),
    # obs / runtime
    ("obs.metrics_scrape_s", "s", "lower", "none (operator cost)"),
    ("obs.metrics_bytes", "B", "lower", "none (operator cost)"),
    ("obs.traced_query_overhead_ratio", "ratio", "lower", "Q@I once tracing is default-on"),
    ("runtime.monitor_overhead_ratio", "ratio", "lower", "Q@L"),
    # loadgen: the benchmark's own client side
    ("loadgen.query_p90_ms", "ms", "lower", "diagnostic for Q"),
    ("loadgen.query_p99_ms", "ms", "lower", "diagnostic for Q"),
    ("loadgen.append_p99_ms", "ms", "lower", "diagnostic for A"),
    ("loadgen.samples", "count", "higher", "diagnostic"),
    ("loadgen.client_cpu_share", "ratio", "lower", "run invalid above 0.6 of a core"),
    ("loadgen.failed_ratio", "ratio", "lower", "must be 0 everywhere"),
    # trace
    ("trace.coverage_ratio", "ratio", "higher", "how much of Q the table explains"),
    ("trace.overhead_ratio", "ratio", "lower", "traced / untraced wall per op@L"),
]


def benchmark_json() -> Dict[str, object]:
    """The document ``BENCHMARK.json`` must hold."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _ in PER_LAYER
        ],
    }


def workload_names() -> List[str]:
    return [name for name, _ in WORKLOADS]


def per_layer_units() -> Dict[str, str]:
    return {name: unit for name, unit, _, _ in PER_LAYER}
