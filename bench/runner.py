"""One untraced run of one workload: set-up, timed phase, checks, metrics."""

from __future__ import annotations

import time
from typing import Dict, List

from bench import checks, stats
from bench.datasets import Sizing
from bench.workloads import WORKLOADS, Phase

Metric = Dict[str, object]


def metric(value: float, unit: str) -> Metric:
    return {"value": value, "unit": unit}


def set_up(workload, sizing: Sizing) -> float:
    """Cold-start ``sizing.cold_starts`` times, warm up once; returns ``setup_s``.

    A cold start (dataset, store, server listening and answering) is
    cheap and noisy, so it is repeated and its median taken; the warm-up
    is many ops long and averages itself, so it runs once on the last
    start.  Both are in ``setup_s`` — set-up cost is reported, never
    hidden.
    """
    cold: List[float] = []
    for _ in range(sizing.cold_starts):
        began = time.perf_counter()
        workload.cold_start()
        cold.append(time.perf_counter() - began)
    began = time.perf_counter()
    workload.warm_up()
    return stats.median(cold) + (time.perf_counter() - began)


def end_to_end(phase: Phase, appends: List[float], setup_s: float) -> Dict[str, Metric]:
    completed = max(1, phase.completed)
    return {
        "setup_s": metric(setup_s, "s"),
        "query_p50_ms": metric(stats.median(phase.query_latencies) * 1000.0, "ms"),
        "append_p50_ms": metric(stats.median(appends) * 1000.0, "ms"),
        "throughput_ops_s": metric(phase.completed / phase.wall_s, "ops/s"),
        "cpu_s_per_op": metric(phase.sut_cpu_s / completed, "s"),
        "peak_rss_mb": metric(phase.peak_rss_mb, "MB"),
    }


def run_result(name: str, seed: int, seconds: float, phase: Phase, metrics, **extra):
    """What a run returns: the driver's four keys plus what people read."""
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "failures": phase.failures,
        "metrics": metrics,
        **extra,
    }


def run_untraced(name: str, seed: int, seconds: float, sizing: Sizing) -> Dict[str, object]:
    """Run one workload once; returns metrics, samples and check outcomes."""
    workload = WORKLOADS[name](seed, sizing)
    try:
        setup_s = set_up(workload, sizing)
        phase = workload.timed_phase(seconds)
        # Checks before the append probe: the probe grows the data.
        checks.check_pins(workload, sizing, phase)
        workload.final_checks(phase)
        appends = phase.append_latencies or workload.append_probe()
        return run_result(
            name, seed, seconds, phase, end_to_end(phase, appends, setup_s),
            samples={
                "query": stats.describe_ms(phase.query_latencies),
                "append": stats.describe_ms(appends),
            },
            failed_ratio=phase.failed / max(1, phase.attempted),
            acked_writes_lost=workload.acked_writes_lost,
            client_cpu_share=phase.client_cpu_s / phase.wall_s,
            command_line=workload.command_line,
        )
    finally:
        workload.close()
