"""Summaries of timing samples: medians, quartiles, supported percentiles."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: A percentile is reported only when this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10

TAIL_PERCENTILES = (90.0, 99.0, 99.9)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank strictly above percentile ``q``."""
    return n - max(1, math.ceil(q / 100.0 * n))


def supported_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Percentile ``q``, or ``None`` with fewer than ten samples beyond it."""
    if samples_beyond(len(values), q) < MIN_SAMPLES_BEYOND:
        return None
    return percentile(values, q)


def highest_supported_tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(q, value)`` for the highest tail percentile the sample supports."""
    best = None
    for q in TAIL_PERCENTILES:
        value = supported_percentile(values, q)
        if value is not None:
            best = (q, value)
    return best


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 when median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def describe_ms(latencies_s: Sequence[float]) -> Dict[str, object]:
    """Median, supported tail and count of a latency sample, in ms."""
    summary: Dict[str, object] = {"n": len(latencies_s)}
    if latencies_s:
        summary["p50_ms"] = median(latencies_s) * 1000.0
        tail = highest_supported_tail(latencies_s)
        if tail is not None:
            summary[f"p{tail[0]:g}_ms"] = tail[1] * 1000.0
    return summary


def tail_ms_or_zero(latencies_s: List[float], q: float) -> float:
    """Percentile in ms, 0.0 when the sample does not support it."""
    value = supported_percentile(latencies_s, q) if latencies_s else None
    return value * 1000.0 if value is not None else 0.0
