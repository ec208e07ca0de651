"""Every workload emits exactly the declared metrics, and leaves nothing behind."""

import json
import os

import pytest

from bench import runner, spec, sut, traced
from bench.__main__ import main, result_line
from bench.datasets import Sizing

SMALL = Sizing().scaled(0.02)
SECONDS = spec.RUN_SECONDS * 0.02


def sut_processes():
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as handle:
                    command = handle.read()
            except OSError:
                continue
            if b"repro.service" in command or b"repro.cluster" in command:
                if str(sut.TMP_ROOT).encode() in command:
                    found.append(int(entry))
    return found


@pytest.mark.parametrize("name", spec.workload_names())
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = runner.run_untraced(name, seed=5, seconds=SECONDS, sizing=SMALL)
    declared = {metric: unit for metric, unit, _, _ in spec.END_TO_END}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(value["value"] > 0 for value in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["acked_writes_lost"] == 0
    line = json.loads(result_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert not sut_processes()
    assert not any(sut.TMP_ROOT.iterdir())


@pytest.mark.parametrize("name", spec.workload_names())
def test_traced_run_emits_every_per_layer_metric(name):
    result = traced.run_traced(name, seed=5, seconds=SECONDS, sizing=SMALL)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec.per_layer_units()
    assert result["correct"]
    trace_file = sut.OUT_DIR / f"trace-{name}.jsonl"
    spans = [json.loads(line) for line in trace_file.read_text().splitlines()]
    assert spans and {"name", "start", "end", "parent", "op_id", "self"} <= set(spans[0])
    assert not sut_processes()
    assert not any(sut.TMP_ROOT.iterdir())


def test_pinned_environment_fails_fast(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_WORKERS", "2")
    assert main(["run", "--workload", "lib_cold_mine", "--scale", "0.02"]) == 2
    assert "REPRO_WORKERS" in capsys.readouterr().err


def test_list_names_every_metric_and_workload(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name, *_ in spec.WORKLOADS + spec.END_TO_END + spec.PER_LAYER:
        assert name in out
