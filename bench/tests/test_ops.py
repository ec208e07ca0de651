"""Op sequences are a pure function of the seed."""

import json
from datetime import datetime

import pytest

from bench import ops

POOL = ops.statement_pool(16)
AFTER = datetime(2025, 12, 31)


def sequences(seed):
    return {
        "interactive": ops.head(ops.interactive(seed, 0, POOL), 200),
        "routed": ops.head(ops.routed_reads(seed, 1, POOL), 200),
        "appends": ops.head(ops.append_batches(seed, "svc_stream_append", AFTER), 20),
        "rounds": ops.head(ops.library_rounds(seed), 20),
    }


def test_equal_seeds_give_byte_identical_sequences():
    assert json.dumps(sequences(7)) == json.dumps(sequences(7))


@pytest.mark.parametrize("kind", ["interactive", "routed", "appends", "rounds"])
def test_different_seeds_give_different_sequences(kind):
    assert json.dumps(sequences(7)[kind]) != json.dumps(sequences(8)[kind])


def test_clients_of_one_run_draw_different_streams():
    first = ops.head(ops.interactive(7, 0, POOL), 50)
    second = ops.head(ops.interactive(7, 1, POOL), 50)
    assert first != second


def test_new_statements_never_collide_with_the_pool_or_each_other():
    fresh = {ops.new_statement(client, 2, n) for client in range(2) for n in range(500)}
    assert len(fresh) == 1000
    assert not fresh & set(ops.statement_pool(768))
    assert len(set(ops.statement_pool(768))) == 768


def test_interactive_mix_is_about_one_new_statement_in_ten():
    sample = ops.head(ops.interactive(3, 0, POOL), 2000)
    share = sum(not op["primed"] for op in sample) / len(sample)
    assert 0.07 < share < 0.13


def test_append_batches_are_in_order_with_seeded_keys():
    batches = ops.head(ops.append_batches(5, "w", AFTER), 3)
    stamps = [stamp for batch in batches for stamp, _ in batch["rows"]]
    assert stamps == sorted(stamps) and stamps[0] > AFTER.isoformat()
    assert [batch["key"] for batch in batches] == ["bench-5-w-0", "bench-5-w-1", "bench-5-w-2"]
    assert all(len(batch["rows"]) == ops.APPEND_BATCH_ROWS for batch in batches)
