"""Structured event trace: a bounded ring buffer with an opt-in JSONL sink.

Every instrumented subsystem emits typed event records here - plan compiles,
program compiles, native compiles/disk hits/failures, threshold violations,
repairs, capability fallbacks - so "what happened during this run" has one
answer instead of a debugger session.

Hot-path contract
-----------------
Tracing is **disabled by default** and every call site is written as::

    if _trace.active: _trace.emit("threshold-violation", site=site, ...)

so the disabled path costs exactly one module-attribute check - no
allocation, no lock, no formatting.  :func:`emit` itself may allocate and
lock freely: it only ever runs when the user opted in via
:func:`enable_trace` or the ``REPRO_TRACE`` environment variable.  The
reprolint ``hotpath-alloc`` rule enforces the guard shape at the emit call
sites inside hot functions.

Enabled, events land in a bounded ring (:func:`events` reads it back) and,
when a path was given, as one JSON object per line in an append-mode JSONL
file - the format the telemetry acceptance campaign greps.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

__all__ = [
    "DEFAULT_RING_CAPACITY",
    "active",
    "emit",
    "enable_trace",
    "disable_trace",
    "trace_path",
    "events",
    "clear_events",
]

DEFAULT_RING_CAPACITY = 1024

#: The one-attribute-check gate every instrumented call site reads.  Rebound
#: (never mutated in place) by :func:`enable_trace` / :func:`disable_trace`.
active: bool = False

_lock = threading.Lock()
_ring: "deque[Dict[str, Any]]" = deque(maxlen=DEFAULT_RING_CAPACITY)
_sink = None
_sink_path: Optional[str] = None
_seq = 0


def _json_default(value: Any) -> str:
    return str(value)


def emit(kind: str, /, **fields: Any) -> None:
    """Record one event (call sites must gate on :data:`active` first).

    ``kind`` is positional-only so events may carry a ``kind=...`` field of
    their own (the ``fallback`` events do).  ``fields`` should be
    JSON-representable; anything else is stringified.  A broken sink
    (closed file, full disk) never propagates into the transform that
    emitted the event.
    """

    global _seq
    with _lock:
        _seq += 1
        record: Dict[str, Any] = {"seq": _seq, "ts": time.time(), "event": str(kind)}
        record.update(fields)
        _ring.append(record)
        if _sink is not None:
            try:
                _sink.write(json.dumps(record, default=_json_default) + "\n")
                _sink.flush()
            except (OSError, ValueError):
                pass


def enable_trace(
    path: Optional[str] = None, *, ring_capacity: Optional[int] = None
) -> None:
    """Turn event tracing on, optionally mirroring events to a JSONL file.

    ``path`` is opened in append mode (one JSON object per line); omit it to
    trace into the in-process ring only.  ``ring_capacity`` resizes the ring
    (oldest events drop first).  Honoured automatically at import time when
    the ``REPRO_TRACE`` environment variable names a path.
    """

    global active, _sink, _sink_path, _ring
    with _lock:
        if ring_capacity is not None and ring_capacity != _ring.maxlen:
            _ring = deque(_ring, maxlen=max(1, int(ring_capacity)))
        if path is not None:
            if _sink is not None:
                try:
                    _sink.close()
                except OSError:
                    pass
            _sink = open(path, "a", encoding="utf-8")
            _sink_path = str(path)
    # reprolint: lock-ok - single-reference rebind of the hot-path gate;
    # readers take one racy bool read by design (the disabled path must not
    # lock), and rebinding after the sink is published keeps emit() safe.
    active = True


def disable_trace() -> None:
    """Turn event tracing off and close any JSONL sink."""

    global active, _sink, _sink_path
    # reprolint: lock-ok - gate drops before the sink closes, so late racy
    # readers at worst emit into the ring; emit() itself locks around _sink.
    active = False
    with _lock:
        if _sink is not None:
            try:
                _sink.close()
            except OSError:
                pass
        _sink = None
        _sink_path = None


def trace_path() -> Optional[str]:
    """Path of the active JSONL sink, or ``None``."""

    with _lock:
        return _sink_path


def events(kind: Optional[str] = None) -> List[Dict[str, Any]]:
    """Snapshot of the ring buffer (filtered to ``kind`` when given)."""

    with _lock:
        snapshot = list(_ring)
    if kind is None:
        return snapshot
    return [record for record in snapshot if record.get("event") == kind]


def clear_events() -> None:
    """Drop the ring buffer's contents (the sequence counter keeps going)."""

    with _lock:
        _ring.clear()


_env_path = os.environ.get("REPRO_TRACE")
if _env_path:
    enable_trace(_env_path)
del _env_path
