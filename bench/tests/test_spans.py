"""Self time: a span's duration minus what its direct children cover."""

from bench.spans import Span, SpanRecorder, covered, self_time_by_name, self_times


def test_overlapping_children_are_not_subtracted_twice():
    spans = [
        Span(0, "op", 0.0, 10.0, None, "a"),
        Span(1, "left", 1.0, 5.0, 0, "a"),
        Span(2, "right", 3.0, 7.0, 0, "a"),  # overlaps left on [3, 5]
    ]
    assert self_times(spans)[0] == 10.0 - 6.0


def test_nested_children_count_once_at_each_level():
    spans = [
        Span(0, "op", 0.0, 10.0, None, "a"),
        Span(1, "child", 2.0, 8.0, 0, "a"),
        Span(2, "grandchild", 3.0, 5.0, 1, "a"),
    ]
    own = self_times(spans)
    assert own == {0: 4.0, 1: 4.0, 2: 2.0}
    assert sum(own.values()) == 10.0


def test_children_reaching_outside_the_parent_are_clipped():
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0


def test_self_time_by_name_sums_spans_of_one_layer():
    spans = [
        Span(0, "op", 0.0, 4.0, None, "a"),
        Span(1, "cache", 0.0, 1.0, 0, "a"),
        Span(2, "cache", 2.0, 3.0, 0, "a"),
    ]
    assert self_time_by_name(spans) == {"op": 2.0, "cache": 2.0}


def test_recorder_nests_by_with_structure_and_inherits_op_id(tmp_path):
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    with recorder.span("op", op_id="op-1"):
        with recorder.span("inner"):
            pass
    inner = recorder.spans[1]
    assert (inner.parent, inner.op_id, inner.duration) == (0, "op-1", 1.0)
    recorder.write(tmp_path / "trace.jsonl")
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert len(lines) == 2 and '"self"' in lines[0]
