"""Micro-batch scheduler: same-``(n, config)`` requests share one ``execute_many``.

Every row of the same ``(n, canonical config)`` key that waits at the same
time joins one group, and the group executes as a single
:meth:`repro.core.ftplan.FTPlan.execute_many` call.  That is the whole
point of serving through the plan cache: a flush costs one cache hit (no
config is rebuilt), and the batched path takes every row's exact norm in
one reduction, runs one product per checksum vector, and verifies every
row in one pass - overheads that a one-request-per-``execute`` front end
pays per request.

``window=0`` (the default) batches without waiting: the first row of a
group schedules the group's flush with ``loop.call_soon``, so the group
runs on the next event-loop turn, after every request the loop read in
the same turn has joined it.  No timer is armed and no row waits for a
peer that may never send.  A positive ``window`` instead holds every
group open for exactly that long - larger batches under sparse open-loop
traffic, but closed-loop clients stall on the timer (throughput caps at
``max_batch / window``).  A group that reaches ``max_batch`` runs at once.

Threading model
---------------
Everything here runs on the event-loop thread: the group table needs no
lock, and batches run inline, so a reply is ready the moment its batch
returns - no thread handoff either way.  The price is that the loop
serves nothing else while a batch runs; ``max_batch`` bounds that wait.
A client that disconnects mid-batch simply leaves a future nobody
awaits - the batch itself is unaffected.

Fault-injection requests bypass batching: interior fault sites only fire
in the scalar :meth:`FTPlan.execute` path (the batched path deliberately
visits INPUT/OUTPUT only), so routing them solo mirrors the library's own
semantics.  ``max_batch=1`` degenerates to one-``execute``-per-request,
which is exactly the baseline mode ``benchmarks/bench_serve.py`` measures
batching against.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.ftplan import plan
from repro.server.protocol import ProtocolError, RequestHead, build_injector
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace

__all__ = ["Batcher", "Reply"]

#: one reply: the response meta dict and the spectrum row (or ``None``)
Reply = Tuple[Dict[str, Any], Optional[np.ndarray]]
GroupKey = Tuple[int, str]


class _Group:
    """Rows of one ``(n, config)`` key waiting for their flush."""

    __slots__ = ("rows", "futures", "handle")

    def __init__(self, handle: asyncio.Handle) -> None:
        self.rows: List[np.ndarray] = []
        self.futures: List["asyncio.Future[Reply]"] = []
        #: the scheduled flush: ``call_soon`` at window 0, else the window timer
        self.handle = handle


class Batcher:
    """Group requests into micro-batches and run them on the event loop."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        *,
        window: float = 0.0,
        max_batch: int = 32,
    ) -> None:
        self._loop = loop
        self._window = max(0.0, float(window))
        self._max_batch = max(1, int(max_batch))
        self._groups: Dict[GroupKey, _Group] = {}
        self._closed = False

    # -- introspection (read from the loop thread by the collector) ----
    @property
    def window(self) -> float:
        return self._window

    @property
    def max_batch(self) -> int:
        return self._max_batch

    @property
    def pending_rows(self) -> int:
        return sum(len(group.rows) for group in self._groups.values())

    # -- the per-request hot path (loop thread) ------------------------
    def append_request(self, head: RequestHead, row: np.ndarray) -> "asyncio.Future[Reply]":
        """Queue one request row; the future resolves to its reply.

        Hot per-request path between the frame parse and the flush trigger:
        one dict lookup and two list appends.  The first row of a group
        schedules its flush (the next loop turn, or the ``window`` timer);
        reaching ``max_batch`` flushes immediately.
        """

        fut: "asyncio.Future[Reply]" = self._loop.create_future()
        if self._closed:
            fut.set_exception(
                ProtocolError("server is draining", status=503, kind="draining")
            )
            return fut
        if head.inject is not None or self._max_batch <= 1:
            _run([fut], _run_single, head, row)
            return fut
        key = (head.n, head.config)
        group = self._groups.get(key)
        if group is None:
            handle = (
                self._loop.call_later(self._window, self._flush, key)
                if self._window > 0.0
                else self._loop.call_soon(self._flush, key)
            )
            group = self._groups[key] = _Group(handle)
        group.rows.append(row)
        group.futures.append(fut)
        if len(group.rows) >= self._max_batch:
            self._flush(key)
        return fut

    def _flush(self, key: GroupKey) -> None:
        group = self._groups.pop(key, None)
        if group is None:
            return  # already flushed by the max-batch trigger
        group.handle.cancel()
        _run(group.futures, _run_batch, key, group.rows)

    # -- drain ---------------------------------------------------------
    def drain(self) -> None:
        """Run every waiting group now and refuse new rows.

        New requests fail with 503 from the moment drain starts; rows that
        were already queued execute and their futures resolve before this
        returns - a SIGTERM never poisons an accepted batch.
        """

        self._closed = True
        for key in list(self._groups):
            self._flush(key)


# ----------------------------------------------------------------------
# execution (loop thread; everything here may allocate freely)
# ----------------------------------------------------------------------

def _run(
    futures: List["asyncio.Future[Reply]"], job: Callable[..., List[Reply]], *args: Any
) -> None:
    """Run ``job(*args)`` and resolve ``futures`` with its replies, in order.

    A failure fails every row of the job (the server answers each with a
    500); a future that is already done belongs to a client that went
    away, and the other rows are unaffected.
    """

    try:
        replies = job(*args)
    except Exception as exc:  # plan/execute failure: report it on every row
        for fut in futures:
            if not fut.done():
                fut.set_exception(exc)
        return
    for fut, reply in zip(futures, replies):
        if not fut.done():
            fut.set_result(reply)


def _run_batch(key: GroupKey, rows: List[np.ndarray]) -> List[Reply]:
    """One flushed group: a single ``execute_many`` over the stacked rows."""

    n, config = key
    batch = len(rows)
    _metrics.inc("server_batches", config=config)
    _metrics.inc("server_transforms", batch, config=config)
    if _trace.active:
        _trace.emit("serve-batch", n=n, config=config, rows=batch)
    result = plan(n, config).execute_many(np.stack(rows))
    out = result.output
    dead = frozenset(result.uncorrectable_rows)
    flagged = frozenset(result.fallback_rows) | dead
    scheme = result.report.scheme
    replies: List[Reply] = []
    for index in range(batch):
        meta = {
            "ok": True,
            "n": n,
            "config": config,
            "bins": int(out.shape[-1]),
            "scheme": scheme,
            "batch_size": batch,
            "batch_index": index,
            "report": {
                "detected": index in flagged,
                "corrected": index in flagged and index not in dead,
                "uncorrectable": index in dead,
            },
        }
        replies.append((meta, out[index]))
    return replies


def _run_single(head: RequestHead, row: np.ndarray) -> List[Reply]:
    """One solo request: scalar ``execute`` (interior fault sites live here)."""

    _metrics.inc("server_transforms", config=head.config)
    injector = build_injector(head.inject) if head.inject is not None else None
    # The payload row is a read-only frombuffer view and the scalar path
    # may corrupt its input in place (INPUT fault site): copy first.
    result = plan(head.n, head.config).execute(np.array(row), injector)
    report = result.report
    meta = {
        "ok": True,
        "n": head.n,
        "config": head.config,
        "bins": int(result.output.shape[-1]),
        "scheme": result.scheme or report.scheme,
        "batch_size": 1,
        "batch_index": 0,
        "report": {
            "detected": report.detected,
            "corrected": report.corrected,
            "uncorrectable": report.has_uncorrectable,
            "corrections": report.correction_count,
            "faults_fired": 0 if injector is None else injector.fired_count,
        },
    }
    return [(meta, result.output)]
