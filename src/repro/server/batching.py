"""Micro-batch scheduler: same-``(n, config)`` requests share one ``execute_many``.

Concurrent clients rarely arrive at the same instant, but they do arrive
within a few hundred microseconds of each other under load.  Every row of
the same ``(n, canonical config)`` key that lands inside one batching
window joins one group, and the group executes as a single
:meth:`repro.core.ftplan.FTPlan.execute_many` call on a worker thread.
That is the whole point of serving through the plan cache: the batched
path samples the robust threshold statistics once per batch, runs one
matmul per checksum vector, and verifies every row in one pass - overheads
that a one-request-per-``execute`` front end pays per request.

``window=0`` (the default) is *connection-aware opportunistic* batching:
the number of open connections bounds how many requests can possibly be
in flight, so the first request of a group sets
``target = min(open connections, max_batch)`` and the group flushes the
moment it holds ``target`` rows - the full concurrent burst coalesces
with zero added latency.  A short grace timer (:data:`Batcher.IDLE_GRACE`,
re-armed while the group keeps growing) bounds the wait when some
connections are idle and the target is never reached; a lone connection
(``target == 1``) dispatches synchronously on arrival.  A positive
``window`` instead holds every group open for exactly that long - larger
batches under sparse open-loop traffic, but closed-loop clients stall on
the timer (throughput caps at ``max_batch / window``).

Threading model
---------------
``append_request`` and ``_flush`` run on the event-loop thread only, so
the group table needs no lock.  Execution happens on a small
``ThreadPoolExecutor`` (numpy releases the GIL inside the kernels);
results come back to the loop via ``asyncio.wrap_future`` and resolve the
per-request futures there.  A client that disconnects mid-batch simply
leaves a future nobody awaits - the batch itself is unaffected.

Fault-injection requests bypass batching: interior fault sites only fire
in the scalar :meth:`FTPlan.execute` path (the batched path deliberately
visits INPUT/OUTPUT only), so routing them solo mirrors the library's own
semantics.  ``max_batch=1`` degenerates to one-``execute``-per-request,
which is exactly the baseline mode ``benchmarks/bench_serve.py`` measures
batching against.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

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
    """Rows of one ``(n, config)`` key waiting for the window to close."""

    __slots__ = ("rows", "futures", "handle", "seen", "target")

    def __init__(self) -> None:
        self.rows: List[np.ndarray] = []
        self.futures: List["asyncio.Future[Reply]"] = []
        self.handle: Optional[asyncio.TimerHandle] = None
        #: zero-window bookkeeping: rows counted when the grace timer was
        #: last armed, and the burst size that flushes without waiting
        #: (``min(open connections, max_batch)`` at group creation).
        self.seen = 0
        self.target = 1


class Batcher:
    """Group requests into micro-batches and run them on a worker pool."""

    #: zero-window straggler grace (seconds): how long a group short of its
    #: connection-count target waits for another arrival before flushing
    #: anyway.  Re-armed on growth, so it bounds the quiet time after the
    #: *last* arrival, not the total wait from the first - a full burst
    #: never waits at all (the target trigger flushes it synchronously),
    #: so this only prices the idle-connection case.
    IDLE_GRACE = 500e-6

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        *,
        window: float = 0.0,
        max_batch: int = 32,
        workers: int = 1,
        peers: Optional[Callable[[], int]] = None,
    ) -> None:
        self._loop = loop
        self._window = max(0.0, float(window))
        self._max_batch = max(1, int(max_batch))
        #: how many requests could currently be in flight - the server
        #: passes its open-connection count; standalone use defaults to 1
        #: (every request dispatches on arrival).
        self._peers: Callable[[], int] = peers if peers is not None else (lambda: 1)
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, int(workers)), thread_name_prefix="repro-serve"
        )
        self._groups: Dict[GroupKey, _Group] = {}
        self._inflight: Set["asyncio.Future[List[Reply]]"] = set()
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

    @property
    def inflight_batches(self) -> int:
        return len(self._inflight)

    # -- the per-request hot path (loop thread) ------------------------
    def append_request(self, head: RequestHead, row: np.ndarray) -> "asyncio.Future[Reply]":
        """Queue one request row; the future resolves to its reply.

        Hot per-request path between the frame parse and the flush trigger:
        one dict lookup and two list appends.  The first row of a group
        arms the flush (the ``window`` timer, or the zero-window
        connection-count target plus grace timer); filling the target or
        ``max_batch`` flushes immediately.
        """

        fut: "asyncio.Future[Reply]" = self._loop.create_future()
        if self._closed:
            fut.set_exception(
                ProtocolError("server is draining", status=503, kind="draining")
            )
            return fut
        if head.inject is not None or self._max_batch <= 1:
            self._dispatch(_SingleJob(head, row), [fut])
            return fut
        key = (head.n, head.config)
        group = self._groups.get(key)
        if group is None:
            group = _Group()
            self._groups[key] = group
            if self._window > 0.0:
                group.handle = self._loop.call_later(self._window, self._flush, key)
            else:
                group.target = min(max(1, self._peers()), self._max_batch)
                if group.target > 1:
                    group.seen = 1
                    group.handle = self._loop.call_later(
                        self.IDLE_GRACE, self._idle_flush, key, group
                    )
        group.rows.append(row)
        group.futures.append(fut)
        size = len(group.rows)
        if size >= self._max_batch or (self._window == 0.0 and size >= group.target):
            self._flush(key)
        return fut

    # -- flushing and delivery (loop thread) ---------------------------
    def _idle_flush(self, key: GroupKey, group: _Group) -> None:
        """Grace-timer expiry for a zero-window group short of its target.

        The group was created while ``target > 1`` other connections were
        open, so peers *may* still deliver rows; reaching the target (or
        ``max_batch``) flushes synchronously in :meth:`append_request` and
        this timer never fires.  When it does fire, the group grew by
        fewer rows than the connection count promised: if it grew at all
        during the last grace period the stragglers get one more
        (re-armed) timer, otherwise the burst is over and the batch runs
        with what it has.  The timer also matters for scheduling: a loop
        parked in ``poll`` yields the GIL/CPU to the client threads whose
        requests are still being written.
        """

        if self._groups.get(key) is not group:
            return  # flushed by the target/max-batch trigger (or a new round)
        size = len(group.rows)
        if size > group.seen:
            group.seen = size
            group.handle = self._loop.call_later(
                self.IDLE_GRACE, self._idle_flush, key, group
            )
            return
        self._flush(key)

    def _flush(self, key: GroupKey) -> None:
        group = self._groups.pop(key, None)
        if group is None:
            return  # already flushed by the max-batch trigger
        if group.handle is not None:
            group.handle.cancel()
        self._dispatch(_BatchJob(key, group.rows), group.futures)

    def _dispatch(self, job: "_Job", futures: List["asyncio.Future[Reply]"]) -> None:
        """Run ``job`` on the executor and route its replies to ``futures``."""

        try:
            cfut = self._executor.submit(job.run)
        except RuntimeError:  # executor already shut down by drain()
            self._fail(futures, ProtocolError("server is draining", status=503, kind="draining"))
            return
        afut = asyncio.wrap_future(cfut, loop=self._loop)
        self._inflight.add(afut)

        def deliver(done: "asyncio.Future[List[Reply]]") -> None:
            self._inflight.discard(done)
            if done.cancelled():
                self._fail(
                    futures, ProtocolError("batch cancelled", status=503, kind="draining")
                )
                return
            exc = done.exception()
            if exc is not None:
                self._fail(futures, exc)
                return
            for fut, reply in zip(futures, done.result()):
                # A done future here means the client disconnected while the
                # batch ran; the other rows of the batch are unaffected.
                if not fut.done():
                    fut.set_result(reply)

        afut.add_done_callback(deliver)

    @staticmethod
    def _fail(futures: List["asyncio.Future[Reply]"], exc: BaseException) -> None:
        for fut in futures:
            if not fut.done():
                fut.set_exception(exc)

    # -- drain ---------------------------------------------------------
    async def drain(self) -> None:
        """Flush every waiting group, wait out in-flight batches, stop the pool.

        New requests fail with 503 from the moment drain starts; rows that
        were already queued or executing complete normally and their
        responses are delivered - a SIGTERM never poisons an accepted batch.
        """

        self._closed = True
        for key in list(self._groups):
            self._flush(key)
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        self._executor.shutdown(wait=True)


# ----------------------------------------------------------------------
# executor-side jobs (worker threads; everything here may allocate freely)
# ----------------------------------------------------------------------

class _BatchJob:
    """One flushed group: a single ``execute_many`` over the stacked rows."""

    __slots__ = ("key", "rows")

    def __init__(self, key: GroupKey, rows: List[np.ndarray]) -> None:
        self.key = key
        self.rows = rows

    def run(self) -> List[Reply]:
        n, config = self.key
        batch = len(self.rows)
        _metrics.inc("server_batches", config=config)
        _metrics.inc("server_transforms", batch, config=config)
        if _trace.active:
            _trace.emit("serve-batch", n=n, config=config, rows=batch)
        result = plan(n, config).execute_many(np.stack(self.rows))
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


class _SingleJob:
    """One solo request: scalar ``execute`` (interior fault sites live here)."""

    __slots__ = ("head", "row")

    def __init__(self, head: RequestHead, row: np.ndarray) -> None:
        self.head = head
        self.row = row

    def run(self) -> List[Reply]:
        head = self.head
        _metrics.inc("server_transforms", config=head.config)
        injector = build_injector(head.inject) if head.inject is not None else None
        # The payload row is a read-only frombuffer view and the scalar path
        # may corrupt its input in place (INPUT fault site): copy first.
        result = plan(head.n, head.config).execute(np.array(self.row), injector)
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


_Job = Any  # _BatchJob | _SingleJob (both expose .run() -> List[Reply])
