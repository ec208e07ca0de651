"""``bench compare`` verdicts on hand-made result files."""

import json

import pytest

from bench import compare

MACHINE = {"nproc": 2, "python": "3.11.7", "platform": "linux", "filesystem": "ext4",
           "git_sha": "aaa"}


def result_file(tmp_path, name, values, metric="query_p50_ms", machine=MACHINE, **extra):
    runs = [
        {"workload": "svc_interactive", "metrics": {metric: {"value": value, "unit": "ms"}},
         "failed_ratio": 0.0, "acked_writes_lost": 0, **extra}
        for value in values
    ]
    path = tmp_path / name
    path.write_text(json.dumps({"machine": machine, "runs": runs}))
    return str(path)


STEADY = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.1]


@pytest.mark.parametrize(
    "change, better, expected",
    [
        (STEADY, "lower", "unchanged"),
        ([v * 1.5 for v in STEADY], "lower", "regressed"),
        ([v * 0.5 for v in STEADY], "lower", "improved"),
        ([v * 0.5 for v in STEADY], "higher", "regressed"),
        # Inside the bound, but further than the parent's own quartiles: a gain.
        ([v * 0.9 for v in STEADY], "lower", "improved"),
        ([v * 1.1 for v in STEADY], "lower", "unchanged"),
    ],
)
def test_verdicts_on_steady_runs(change, better, expected):
    assert compare.verdict(STEADY, change, better, 0.25) == expected


def test_wide_spread_without_dominance_is_unresolved():
    noisy = [6.0, 14.0, 8.0, 13.0, 5.0, 15.0, 7.0, 12.0, 9.0, 11.0]
    shifted = [v * 1.2 for v in noisy]
    assert compare.verdict(noisy, shifted, "lower", 0.25) == "unresolved"


def test_wide_spread_is_resolved_when_every_run_of_one_side_wins():
    noisy = [6.0, 14.0, 8.0, 13.0, 5.0, 15.0, 7.0, 12.0, 9.0, 11.0]
    assert compare.verdict(noisy, [v / 10 for v in noisy], "lower", 0.25) == "improved"
    assert compare.verdict(noisy, [v * 10 for v in noisy], "lower", 0.25) == "regressed"


def test_exit_codes(tmp_path, capsys):
    parent = result_file(tmp_path, "parent.json", STEADY)
    same = result_file(tmp_path, "same.json", STEADY)
    slower = result_file(tmp_path, "slower.json", [v * 2 for v in STEADY])
    assert compare.main(parent, same) == 0
    assert "unchanged" in capsys.readouterr().out
    assert compare.main(parent, slower) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "base: parent median 10" in out


def test_a_rise_in_failed_ratio_fails_even_when_timings_hold(tmp_path, capsys):
    parent = result_file(tmp_path, "parent.json", STEADY)
    failing = result_file(tmp_path, "failing.json", STEADY, failed_ratio=0.01)
    assert compare.main(parent, failing) == 1
    assert "failed_ratio" in capsys.readouterr().out


def test_differing_machines_are_refused_unless_forced(tmp_path, capsys):
    parent = result_file(tmp_path, "parent.json", STEADY)
    other = result_file(tmp_path, "other.json", STEADY, machine={**MACHINE, "nproc": 8})
    newer = result_file(tmp_path, "newer.json", STEADY, machine={**MACHINE, "git_sha": "bbb"})
    assert compare.main(parent, other) == 2
    assert "nproc" in capsys.readouterr().out
    assert compare.main(parent, other, force=True) == 0
    assert compare.main(parent, newer) == 0  # commits differ by design
