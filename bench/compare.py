"""``python -m bench compare PARENT.json CHANGE.json``.

Per workload and end-to-end metric: both sides' median and quartiles,
the ratio with its base, and one verdict:

* ``regressed`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``improved`` — it is better by more than the distance between the
  parent's own quartiles, and the change wins at least nine tenths of
  the run pairs (run *i* of each side; ties count for neither);
* ``unresolved`` — the run-to-run spread of either side is wider than
  the bound, and it is not the case that every run of one side beats
  every run of the other;
* ``unchanged`` — none of the above.

Exit status 1 on any ``regressed`` or any rise in ``failed_ratio`` /
``acked_writes_lost``; 2 when the machine blocks differ without
``--force``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from bench import spec, stats

#: Commits differ by design; everything else must match.
MACHINE_KEYS = ("nproc", "python", "platform", "filesystem")


def load(path: str) -> Dict[str, object]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def by_workload(document: Dict[str, object]) -> Dict[str, List[Dict]]:
    grouped: Dict[str, List[Dict]] = {}
    for run in document["runs"]:
        grouped.setdefault(run["workload"], []).append(run)
    return grouped


def values(runs: Sequence[Dict], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs if metric in run["metrics"]]


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse the change is, as a share of the parent (negative = better)."""
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def dominates(winners: Sequence[float], losers: Sequence[float], better: str) -> bool:
    """Every run of ``winners`` reads better than every run of ``losers``."""
    if better == "lower":
        return max(winners) < min(losers)
    return min(winners) > max(losers)


def win_share(parent: Sequence[float], change: Sequence[float], better: str) -> float:
    """Share of run pairs (by position) the change wins; ties count for neither."""
    pairs = [(p, c) for p, c in zip(parent, change) if p != c]
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in pairs)
    return wins / len(pairs) if pairs else 0.0


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    p1, p2, p3 = stats.quartiles(parent)
    worse_by = worsening(p2, stats.median(change), better)
    wide = max(stats.spread(parent), stats.spread(change)) > bound
    change_wins = dominates(change, parent, better)
    parent_wins = dominates(parent, change, better)
    if wide and not (change_wins or parent_wins):
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if (
        worse_by < 0
        and abs(stats.median(change) - p2) > (p3 - p1)
        and win_share(parent, change, better) >= 0.9
    ):
        return "improved"
    return "unchanged"


def _quartile_text(sample: Sequence[float]) -> str:
    q1, q2, q3 = stats.quartiles(sample)
    return f"{q2:.6g} [{q1:.6g}..{q3:.6g}] n={len(sample)}"


def main(parent_path: str, change_path: str, force: bool = False) -> int:
    parent, change = load(parent_path), load(change_path)
    differing = [
        key for key in MACHINE_KEYS
        if parent["machine"].get(key) != change["machine"].get(key)
    ]
    if differing and not force:
        print(f"machine blocks differ in {', '.join(differing)}; pass --force to compare anyway")
        return 2
    parent_runs, change_runs = by_workload(parent), by_workload(change)
    failed = False
    for workload in spec.workload_names():
        if workload not in parent_runs or workload not in change_runs:
            continue
        print(workload)
        for name, unit, better, bound in spec.END_TO_END:
            before, after = values(parent_runs[workload], name), values(change_runs[workload], name)
            if not before or not after:
                continue
            outcome = verdict(before, after, better, bound)
            failed |= outcome == "regressed"
            base = stats.median(before)
            print(
                f"  {name} [{unit}, {better} is better, bound {bound:g}]: "
                f"parent {_quartile_text(before)} | change {_quartile_text(after)} | "
                f"change/parent = {stats.median(after) / base:.4f} "
                f"(base: parent median {base:.6g} {unit}) -> {outcome}"
            )
        for counter in ("failed_ratio", "acked_writes_lost"):
            before = max(run.get(counter, 0) for run in parent_runs[workload])
            after = max(run.get(counter, 0) for run in change_runs[workload])
            rose = after > before
            failed |= rose
            print(f"  {counter}: parent max {before:g} | change max {after:g}"
                  f" -> {'ROSE' if rose else 'ok'}")
    return 1 if failed else 0
