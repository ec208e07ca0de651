"""Pinned inputs and answers: the workload must not change silently.

``pins.json`` holds, per workload, a digest of each full-size dataset and
a SHA-256 of the workload's canonical result set (the answers its warm-up
collected).  Datasets are generated from fixed seeds, so the pins hold
for every ``--seed``; a changed ``repro.datagen`` or a changed answer
fails the run instead of quietly measuring something else.  The per-op
checks (hit == miss, served == library, post-append == full re-mine,
no acknowledged write lost) live with the workloads.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from bench.datasets import Sizing
from bench.sut import BENCH_DIR

PINS_PATH = BENCH_DIR / "pins.json"


def database_digest(database) -> str:
    """SHA-256 over every ``(tid, timestamp, item labels)`` row, in order."""
    digest = hashlib.sha256()
    catalog = database.catalog
    for transaction in database:
        labels = ",".join(catalog.label(item) for item in transaction.items.items)
        digest.update(
            f"{transaction.tid}\x1f{transaction.timestamp.isoformat()}\x1f{labels}\x1e".encode()
        )
    return digest.hexdigest()


def result_digest(result_set: Dict[str, List[str]]) -> str:
    blob = json.dumps(result_set, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def compute_pins(workload) -> Dict[str, object]:
    return {
        "datasets": {
            name: database_digest(database)
            for name, database in workload.dataset_stores().items()
        },
        "results": result_digest(workload.result_set()),
    }


def check_pins(workload, sizing: Sizing, phase) -> None:
    """Compare this run's inputs and answers with ``pins.json``."""
    if sizing != Sizing():
        return  # the pins describe the full-size inputs only
    pinned = json.loads(PINS_PATH.read_text())[workload.name]
    found = compute_pins(workload)
    for name, digest in found["datasets"].items():
        phase.check(
            digest == pinned["datasets"].get(name),
            f"dataset {name} differs from pins.json (repro.datagen changed?)",
        )
    phase.check(
        found["results"] == pinned["results"],
        f"{workload.name} answers differ from pins.json",
    )
