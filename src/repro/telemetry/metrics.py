"""The metrics registry: sharded counters, gauges, and cache-surface collectors.

One process-wide :class:`Registry` aggregates everything the library already
counts - the plan LRU, the program LRU, the twiddle cache, the native
kernel cache - plus the ABFT activity counters fed by
:class:`repro.core.detection.FTReport` and the planner fallback counters,
and renders the merged view as a plain dict, JSON, or Prometheus text
exposition format.

Concurrency design
------------------
Counters are **per-thread sharded**: each thread increments its own plain
dict (registered once under the registry lock, then touched lock-free), and
readers merge all shards on demand.  Concurrent executor threads therefore
never contend on a counter, and an increment costs one dict
operation.  Merging tolerates concurrent increments by retrying the shard
snapshot; counts are monotone, so a retried snapshot is always consistent.

Gauges and collectors are read-mostly and sit behind the registry lock.
Collectors are zero-argument callables returning a mapping (registered
lazily so this module never imports the subsystems it observes - no import
cycles); their results appear under ``snapshot()["caches"]``.
"""

from __future__ import annotations

import json
import re
import threading
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "Registry",
    "registry",
    "inc",
    "set_gauge",
    "register_collector",
    "unregister_collector",
    "counters",
    "collector_names",
    "snapshot",
    "render_prometheus",
    "prometheus_exposition",
    "reset",
]

#: a counter key: (name, ((label, value), ...)) with labels sorted
CounterKey = Tuple[str, Tuple[Tuple[str, str], ...]]

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize(name: str) -> str:
    return _NAME_SANITIZER.sub("_", name)


def _shard_snapshot(shard: Dict[CounterKey, int]) -> Dict[CounterKey, int]:
    """Copy one thread's shard, tolerating concurrent inserts."""

    for _ in range(8):
        try:
            return dict(shard)
        except RuntimeError:  # resized mid-copy by its owning thread
            continue
    return dict(shard)  # last attempt propagates if the race persists


class Registry:
    """A process-wide registry of counters, gauges, and info-surface collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._shards: List[Dict[CounterKey, int]] = []
        self._gauges: Dict[str, float] = {}
        self._collectors: Dict[str, Callable[[], Mapping[str, Any]]] = {}

    # -- counters ------------------------------------------------------
    def _shard(self) -> Dict[CounterKey, int]:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = {}
            self._local.shard = shard
            with self._lock:
                self._shards.append(shard)
        return shard

    def inc(self, name: str, amount: int = 1, **labels: str) -> None:
        """Add ``amount`` to the monotone counter ``name`` (with ``labels``).

        Lock-free after a thread's first increment: each thread owns a
        private shard merged on read.
        """

        if not labels:
            key: CounterKey = (name, ())
        elif len(labels) == 1:  # the common case, with nothing to sort
            ((label, value),) = labels.items()
            key = (name, ((label, str(value)),))
        else:
            key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        shard = self._shard()
        shard[key] = shard.get(key, 0) + amount

    def counters(self) -> Dict[CounterKey, int]:
        """All counters merged across every thread's shard."""

        with self._lock:
            shards = list(self._shards)
        merged: Dict[CounterKey, int] = {}
        for shard in shards:
            for key, value in _shard_snapshot(shard).items():
                merged[key] = merged.get(key, 0) + value
        return merged

    # -- gauges --------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        """Set the point-in-time gauge ``name`` to ``value``."""

        with self._lock:
            self._gauges[name] = float(value)

    def gauges(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._gauges)

    # -- collectors ----------------------------------------------------
    def register_collector(self, name: str, fn: Callable[[], Mapping[str, Any]]) -> None:
        """Register a zero-argument info-surface collector (e.g. a cache_info).

        Re-registering a name replaces the collector; results appear under
        ``snapshot()["caches"][name]``.
        """

        with self._lock:
            self._collectors[name] = fn

    def unregister_collector(
        self, name: str, fn: Optional[Callable[[], Mapping[str, Any]]] = None
    ) -> None:
        """Remove a collector so a retired surface stops rendering.

        With ``fn`` given, the name is only removed while it still maps to
        that collector - a component shutting down after something else
        re-registered the name (two in-process servers in one test run)
        must not tear down its successor's surface.
        """

        with self._lock:
            if fn is None or self._collectors.get(name) == fn:
                self._collectors.pop(name, None)

    def collector_names(self) -> List[str]:
        """Names of the registered info-surface collectors (sorted)."""

        with self._lock:
            return sorted(self._collectors)

    def collect(self) -> Dict[str, Dict[str, Any]]:
        """Run every collector; a failing collector reports its error inline."""

        with self._lock:
            collectors = list(self._collectors.items())
        surfaces: Dict[str, Dict[str, Any]] = {}
        for name, fn in collectors:
            try:
                surfaces[name] = dict(fn())
            except Exception as exc:  # a down surface must not hide the rest
                surfaces[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return surfaces

    # -- export --------------------------------------------------------
    @staticmethod
    def _render_key(key: CounterKey) -> str:
        name, labels = key
        if not labels:
            return name
        rendered = ",".join(f'{k}="{v}"' for k, v in labels)
        return f"{name}{{{rendered}}}"

    def snapshot(self) -> Dict[str, Any]:
        """The merged registry as one plain dict (counters, gauges, caches)."""

        return {
            "counters": {
                self._render_key(key): value
                for key, value in sorted(self.counters().items())
            },
            "gauges": dict(sorted(self.gauges().items())),
            "caches": self.collect(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, default=str)

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format.

        Counters become ``repro_<name>_total`` counter series; gauges and
        every numeric field of the collected cache surfaces become
        ``repro_<surface>_<field>`` gauges.

        This is the **only** rendering path: ``repro stats --prometheus``
        and the serve daemon's ``/metrics`` endpoint both go through
        :func:`prometheus_exposition`, so the two can never drift.
        """

        lines: List[str] = []
        by_name: Dict[str, List[Tuple[Tuple[Tuple[str, str], ...], int]]] = {}
        for (name, labels), value in sorted(self.counters().items()):
            by_name.setdefault(name, []).append((labels, value))
        for name, series in by_name.items():
            metric = f"repro_{_sanitize(name)}_total"
            lines.append(f"# TYPE {metric} counter")
            for labels, value in series:
                if labels:
                    rendered = ",".join(
                        f'{_sanitize(k)}="{v}"' for k, v in labels
                    )
                    lines.append(f"{metric}{{{rendered}}} {value}")
                else:
                    lines.append(f"{metric} {value}")
        for name, value in sorted(self.gauges().items()):
            metric = f"repro_{_sanitize(name)}"
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {value}")
        for surface, fields in sorted(self.collect().items()):
            for field, value in sorted(fields.items()):
                if isinstance(value, bool):
                    value = int(value)
                if not isinstance(value, (int, float)):
                    continue
                metric = f"repro_{_sanitize(surface)}_{_sanitize(field)}"
                lines.append(f"# TYPE {metric} gauge")
                lines.append(f"{metric} {value}")
        return "\n".join(lines) + "\n"

    # -- test support --------------------------------------------------
    def reset(self) -> None:
        """Zero every counter and gauge (collectors stay registered)."""

        with self._lock:
            for shard in self._shards:
                shard.clear()
            self._gauges.clear()


_REGISTRY = Registry()


def registry() -> Registry:
    """The process-wide registry instance."""

    return _REGISTRY


def inc(name: str, amount: int = 1, **labels: str) -> None:
    _REGISTRY.inc(name, amount, **labels)


def set_gauge(name: str, value: float) -> None:
    _REGISTRY.set_gauge(name, value)


def register_collector(name: str, fn: Callable[[], Mapping[str, Any]]) -> None:
    _REGISTRY.register_collector(name, fn)


def unregister_collector(
    name: str, fn: Optional[Callable[[], Mapping[str, Any]]] = None
) -> None:
    _REGISTRY.unregister_collector(name, fn)


def counters() -> Dict[CounterKey, int]:
    return _REGISTRY.counters()


def snapshot() -> Dict[str, Any]:
    return _REGISTRY.snapshot()


def render_prometheus() -> str:
    return _REGISTRY.render_prometheus()


def prometheus_exposition() -> bytes:
    """The Prometheus exposition as the exact bytes every consumer serves.

    The CLI writes these bytes to ``stdout.buffer`` and the serve daemon's
    ``/metrics`` endpoint sends them as the response body - one call path,
    byte-identical output (pinned by ``tests/server/test_metrics_parity``).
    """

    return _REGISTRY.render_prometheus().encode("utf-8")


def collector_names() -> List[str]:
    return _REGISTRY.collector_names()


def reset() -> None:
    _REGISTRY.reset()


# ----------------------------------------------------------------------
# default collectors: every existing cache_info() surface.
# Imports happen at *collection* time so observing a subsystem never
# imports it (and never creates an import cycle).
# ----------------------------------------------------------------------

def _collect_plan_cache() -> Mapping[str, Any]:
    from repro.core.ftplan import plan_cache_info

    return plan_cache_info()._asdict()


def _collect_program_cache() -> Mapping[str, Any]:
    from repro.fftlib.executor import program_cache_info

    return program_cache_info()._asdict()


def _collect_twiddle_cache() -> Mapping[str, Any]:
    from repro.fftlib.twiddle import get_global_cache

    return get_global_cache().cache_info()._asdict()


def _collect_native() -> Mapping[str, Any]:
    from repro.fftlib.native import native_info

    return native_info()


register_collector("plan_cache", _collect_plan_cache)
register_collector("program_cache", _collect_program_cache)
register_collector("twiddle_cache", _collect_twiddle_cache)
register_collector("native", _collect_native)
