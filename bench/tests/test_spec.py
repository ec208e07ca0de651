"""BENCHMARK.json is the checked copy of bench.spec and meets the contract."""

import json
import re

from bench import spec
from bench.sut import REPO_ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def declared():
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_spec():
    assert declared() == spec.benchmark_json()


def test_contract_limits():
    document = declared()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert isinstance(document["run_seconds"], int) and 1 <= document["run_seconds"] <= 60
    names = []
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for entry in document["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in document["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    for entry in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [e for e in document["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in document["end_to_end"])


def test_every_per_layer_metric_names_what_it_should_move():
    assert all(moves.strip() for _, _, _, moves in spec.PER_LAYER)
