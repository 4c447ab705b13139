"""The batcher's dispatch, driven directly on an event loop.

Rows appended in one loop turn join one group per ``(n, config)`` key, and
the group runs inline on the next turn - no timer, no thread.  These tests
append rows before yielding to the loop, so which rows share a batch is
fixed by construction, not by timing.  Every served spectrum must be
bitwise equal to a direct ``execute_many`` of its row alone.
"""

import asyncio
import json

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.server.batching import Batcher
from repro.server.protocol import ProtocolError, parse_head

N = 256
CONFIG = "opt-online+mem"
INJECT = {"site": "stage1-compute", "kind": "add-constant", "magnitude": 50.0}


def _head(inject=None):
    fields = {"n": N, "config": CONFIG}
    if inject is not None:
        fields["inject"] = inject
    return parse_head(json.dumps(fields).encode())


def _row(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, N) + 1j * rng.uniform(-1.0, 1.0, N)


def _reference(x: np.ndarray) -> np.ndarray:
    return repro.plan(N, CONFIG).execute_many(x[np.newaxis]).output[0]


def _batches() -> int:
    return sum(v for (name, _), v in telemetry.counters().items() if name == "server_batches")


def _serve(rows, heads=None, **batcher_args):
    """Append every row in one loop turn, then await all replies."""

    heads = heads or [_head()] * len(rows)

    async def scenario():
        batcher = Batcher(asyncio.get_running_loop(), **batcher_args)
        futures = [batcher.append_request(head, row) for head, row in zip(heads, rows)]
        return await asyncio.gather(*futures)

    before = _batches()
    replies = asyncio.run(scenario())
    return replies, _batches() - before


def test_rows_appended_in_one_turn_share_a_batch():
    rows = [_row(seed) for seed in range(3)]
    replies, batches = _serve(rows)
    assert batches == 1
    for index, (row, (meta, spectrum)) in enumerate(zip(rows, replies)):
        assert meta["batch_size"] == 3
        assert meta["batch_index"] == index
        assert np.array_equal(spectrum, _reference(row))


def test_a_group_at_max_batch_runs_at_once():
    # max_batch + 1 rows in one turn: the first max_batch run when the last
    # of them joins, the extra row starts a new group for the next turn.
    rows = [_row(seed) for seed in range(5)]
    replies, batches = _serve(rows, max_batch=4)
    assert batches == 2
    assert [meta["batch_size"] for meta, _ in replies] == [4, 4, 4, 4, 1]
    assert [meta["batch_index"] for meta, _ in replies] == [0, 1, 2, 3, 0]
    for row, (_meta, spectrum) in zip(rows, replies):
        assert np.array_equal(spectrum, _reference(row))


def test_injection_row_runs_alone_among_clean_rows():
    rows = [_row(seed) for seed in range(3)]
    heads = [_head(), _head(INJECT), _head()]
    replies, batches = _serve(rows, heads)
    assert batches == 1  # the two clean rows; the injected row runs execute
    (clean_a, out_a), (injected, out_i), (clean_b, out_b) = replies
    assert clean_a["batch_size"] == clean_b["batch_size"] == 2
    assert injected["batch_size"] == 1
    assert injected["report"]["faults_fired"] == 1
    assert injected["report"]["detected"] and injected["report"]["corrected"]
    assert not injected["report"]["uncorrectable"]
    assert np.allclose(out_i, _reference(rows[1]))
    assert np.array_equal(out_a, _reference(rows[0]))
    assert np.array_equal(out_b, _reference(rows[2]))


def test_drain_answers_queued_rows_and_refuses_later_ones():
    rows = [_row(seed) for seed in range(3)]

    async def scenario():
        batcher = Batcher(asyncio.get_running_loop())
        queued = [batcher.append_request(_head(), row) for row in rows[:2]]
        batcher.drain()
        assert all(fut.done() for fut in queued)
        late = batcher.append_request(_head(), rows[2])
        with pytest.raises(ProtocolError) as excinfo:
            await late
        return await asyncio.gather(*queued), excinfo.value

    replies, refusal = asyncio.run(scenario())
    assert refusal.status == 503
    assert refusal.kind == "draining"
    for row, (meta, spectrum) in zip(rows, replies):
        assert meta["batch_size"] == 2
        assert np.array_equal(spectrum, _reference(row))


def test_execute_failure_fails_every_row_of_the_batch():
    # A failing batch must resolve every row's future (the server answers
    # each with a 500) rather than leave its requests waiting forever.
    rows = [_row(0), _row(1)[: N // 2]]  # a ragged row makes np.stack raise

    async def scenario():
        batcher = Batcher(asyncio.get_running_loop())
        futures = [batcher.append_request(_head(), row) for row in rows]
        return await asyncio.gather(*futures, return_exceptions=True)

    outcomes = asyncio.run(scenario())
    assert len(outcomes) == 2
    assert all(isinstance(outcome, ValueError) for outcome in outcomes)
