"""In-memory spans around the calls the program makes into each layer.

The tracer wraps the public methods and module attributes through which the
program reaches a layer (``ENTRY_POINTS``).  Inside an op opened with
:meth:`Tracer.op`, every wrapped call records one span: id, parent id, op,
name, layer, start, end.  A span's self time is its duration minus the time
its direct children cover, so an op's self times, summed by layer, plus the
op's own self time (the explicit ``other`` row) add up to its latency
exactly.  Outside an op a wrapper only forwards the call.

Calls the program binds at plan time (threshold closures, the server's
worker pool in another process) cannot be wrapped; the workloads replay
those one layer at a time instead.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from time import perf_counter

# (module, owner class or None for a module function, attribute, span name, layer)
ENTRY_POINTS = (
    ("repro.core.ftplan", "FTPlan", "execute", "core.execute", "core"),
    ("repro.core.ftplan", "FTPlan", "inverse", "core.inverse", "core"),
    ("repro.fftlib.protected", "ProtectedStageProgram", "encode", "fftlib.encode", "fftlib"),
    (
        "repro.fftlib.protected",
        "ProtectedStageProgram",
        "execute_tapped",
        "fftlib.execute_tapped",
        "fftlib",
    ),
    ("repro.fftlib.plan", "Plan", "execute", "fftlib.plan", "fftlib"),
    ("repro.fftlib.plan", "Plan", "execute_batch", "fftlib.plan", "fftlib"),
    ("repro.core.thresholds", "ThresholdPolicy", "magnitude_rms", "core.thresholds", "core"),
    ("repro.core.thresholds", "ThresholdPolicy", "component_sigma", "core.thresholds", "core"),
    ("repro.core.thresholds", "ThresholdPolicy", "eta_stage1", "core.thresholds", "core"),
    ("repro.core.thresholds", "ThresholdPolicy", "eta_stage2", "core.thresholds", "core"),
    ("repro.core.thresholds", "ThresholdPolicy", "eta_offline", "core.thresholds", "core"),
    ("repro.core.thresholds", "ThresholdPolicy", "eta_memory", "core.thresholds", "core"),
    ("repro.core.checksums", None, "weighted_sum", "core.checksums", "core"),
    ("repro.core.checksums", None, "repair_single_error", "core.checksums", "core"),
    ("repro.faults.injector", "FaultInjector", "visit", "faults.visit", "faults"),
    # Client.transform's self time is the wait for the daemon's reply
    ("repro.client", "Client", "transform", "server.round_trip", "server"),
    ("repro.server.protocol", None, "encode_request", "client.encode", "client"),
    ("repro.server.protocol", None, "parse_response", "client.decode", "client"),
)

LAYERS = ("fftlib", "core", "faults", "client", "server", "other")

# span record fields; _NESTED marks a span called from a span of the same
# name, whose time the outer span already includes
_ID, _PARENT, _OP, _NAME, _LAYER, _T0, _T1, _CHILD, _NESTED = range(9)


class OpSummary:
    """One traced op: latency, self time by layer and by span name, and the
    outermost calls' inclusive time by span name."""

    __slots__ = ("latency", "self_by_layer", "self_by_name", "incl_by_name", "tag")

    def __init__(self, tag) -> None:
        self.tag = tag
        self.latency = 0.0
        self.self_by_layer = dict.fromkeys(LAYERS, 0.0)
        self.self_by_name: dict = {}
        self.incl_by_name: dict = {}

    def incl(self, name: str) -> float:
        return self.incl_by_name.get(name, 0.0)

    def self_time(self, name: str) -> float:
        return self.self_by_name.get(name, 0.0)

    def unaccounted(self) -> float:
        return self.latency - sum(self.self_by_layer.values())


class Tracer:
    """Records spans around the program's layer entry points while installed."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list = []  # (open stack, spans, op summaries) per thread
        self._saved: list = []

    # -- per-thread state ------------------------------------------------
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [], [])  # open stack, finished spans, op summaries
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    @property
    def ops(self) -> list:
        with self._lock:
            return [summary for state in self._threads for summary in state[2]]

    # -- ops ---------------------------------------------------------------
    def op(self, body, tag=None):
        """Run ``body()`` as one traced op; returns its result and the op's
        :class:`OpSummary`."""

        stack, spans, summaries = self._state()
        first = len(spans)
        root = [next(self._ids), None, None, "op", "other", 0.0, 0.0, 0.0, False]
        root[_OP] = root[_ID]
        stack.append(root)
        root[_T0] = perf_counter()
        try:
            result = body()
        finally:
            root[_T1] = perf_counter()
            stack.pop()
            spans.append(tuple(root))
            summaries.append(self._summarise(root, spans[first:], tag))
        return result, summaries[-1]

    @staticmethod
    def _summarise(root, spans, tag) -> OpSummary:
        summary = OpSummary(tag)
        summary.latency = root[_T1] - root[_T0]
        for span in spans:
            duration = span[_T1] - span[_T0]
            own = duration - span[_CHILD]
            name = span[_NAME]
            summary.self_by_layer[span[_LAYER]] += own
            summary.self_by_name[name] = summary.self_by_name.get(name, 0.0) + own
            if not span[_NESTED]:
                summary.incl_by_name[name] = summary.incl_by_name.get(name, 0.0) + duration
        return summary

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, function, name: str, layer: str):
        local = self._local
        ids = self._ids

        @functools.wraps(function)
        def traced(*args, **kwargs):
            state = getattr(local, "state", None)
            if not state or not state[0]:
                return function(*args, **kwargs)
            stack, spans, _ = state
            parent = stack[-1]
            nested = parent[_NAME] == name
            span = [next(ids), parent[_ID], parent[_OP], name, layer, 0.0, 0.0, 0.0, nested]
            stack.append(span)
            span[_T0] = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                span[_T1] = perf_counter()
                stack.pop()
                parent[_CHILD] += span[_T1] - span[_T0]
                # closed spans are kept as tuples, which the cyclic garbage
                # collector stops scanning
                spans.append(tuple(span))

        return traced

    def install(self) -> None:
        """Wrap every entry point (module functions in every ``repro`` module
        that imported them by name)."""

        import importlib

        for module_name, owner_name, attr, name, layer in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, self._wrap(original, name, layer), original)
                continue
            original = getattr(module, attr)
            traced = self._wrap(original, name, layer)
            ours = [m for key, m in list(sys.modules.items()) if key.startswith("repro") and m]
            for loaded in ours:
                if loaded.__dict__.get(attr) is original:
                    self._set(loaded, attr, traced, original)

    def _set(self, owner, attr, value, original) -> None:
        setattr(owner, attr, value)
        self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------
    def write(self, path) -> int:
        """Write every span as one JSON line; returns the span count."""

        count = 0
        with open(path, "w", encoding="utf-8") as handle:
            with self._lock:
                threads = list(self._threads)
            for _, spans, _ in threads:
                for span in spans:
                    record = {
                        "id": span[_ID],
                        "parent": span[_PARENT],
                        "op": span[_OP],
                        "name": span[_NAME],
                        "layer": span[_LAYER],
                        "start": span[_T0],
                        "end": span[_T1],
                    }
                    handle.write(json.dumps(record) + "\n")
                    count += 1
        return count
