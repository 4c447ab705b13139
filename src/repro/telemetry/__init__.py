"""Unified telemetry: metrics registry, event trace, and timing profiles.

The paper's value proposition is *what the ABFT layer did at runtime* -
detections, locations, corrections, threshold decisions, fallbacks.  This
package gives those outcomes one home with three pillars:

**Metrics registry** (:func:`registry`, :func:`snapshot`,
:func:`render_prometheus`): named monotone counters (per-site/per-scheme
ABFT activity, native fallbacks by reason, capability fallbacks) merged
with every existing ``cache_info()`` surface, exportable as a plain dict,
JSON, or Prometheus text.  Counters are per-thread sharded and merged on
read, so concurrent threads never contend.

**Event trace** (:func:`enable_trace`, :func:`events`): a bounded ring of
typed event records (plan/program/native compiles, threshold violations,
repairs, fallbacks) with an opt-in JSONL sink - ``REPRO_TRACE=path`` or
``enable_trace(path)``.  Disabled (the default), every emit site costs one
attribute check and nothing else.

**Timing profiles** (``FTPlan.profile(x)``, ``repro profile``): one timed
execution broken into base kernel, combine stages, checksum encode, and tap
verification phases.

This is the observability layer the ``repro serve`` daemon mounts as its
``/metrics`` (Prometheus, via :func:`prometheus_exposition`) and ``/stats``
(JSON ``snapshot()``) endpoints; see ``docs/metrics.md`` for the reference
table of every counter and event.
"""

from repro.telemetry.metrics import (
    Registry,
    collector_names,
    counters,
    inc,
    prometheus_exposition,
    register_collector,
    registry,
    render_prometheus,
    reset,
    set_gauge,
    snapshot,
    unregister_collector,
)
from repro.telemetry.profile import ProfileEntry, ProfileResult
from repro.telemetry.trace import (
    clear_events,
    disable_trace,
    emit,
    enable_trace,
    events,
    trace_path,
)

__all__ = [
    "Registry",
    "registry",
    "counters",
    "inc",
    "set_gauge",
    "register_collector",
    "unregister_collector",
    "snapshot",
    "render_prometheus",
    "prometheus_exposition",
    "collector_names",
    "reset",
    "enable_trace",
    "disable_trace",
    "trace_path",
    "emit",
    "events",
    "clear_events",
    "ProfileEntry",
    "ProfileResult",
]
