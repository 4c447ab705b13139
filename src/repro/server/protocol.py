"""Wire protocol of the transform server.

One transform request is a *frame*: a single JSON head line terminated by
``\\n``, followed immediately by the raw little-endian payload bytes.  The
head names the transform length ``n``, the protection config (the legacy
scheme-name grammar of :meth:`repro.core.config.FTConfig.from_name`, e.g.
``"opt-online+mem+real+numpy"``), and optionally a fault-injection spec.  The
payload is the input row: ``n`` float64 samples for real configs, ``n``
complex128 samples otherwise - exactly the bytes of the numpy array, no
base64, no per-element framing.

A transform response mirrors the shape: one JSON head line (``ok``, ``n``,
``bins``, ``scheme``, the batch coordinates, and the per-row
:class:`repro.core.detection.FTReport` summary), then the spectrum as raw
complex128 bytes.  Errors are plain JSON bodies carrying ``ok: false``, a
message, and a machine-readable ``kind``.

The parse functions here are the server's per-request hot path (reprolint's
``hotpath-alloc`` rule watches them): one ``json.loads``, a handful of dict
lookups, and a zero-copy :func:`numpy.frombuffer` view per request.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.config import FTConfig
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultKind, FaultSite, FaultSpec

__all__ = [
    "DEFAULT_CONFIG",
    "FRAME_CONTENT_TYPE",
    "MAX_HEAD_BYTES",
    "ProtocolError",
    "RequestHead",
    "canonical_config",
    "parse_head",
    "parse_payload",
    "validate_inject",
    "build_injector",
    "encode_request",
    "encode_response",
    "parse_response",
]

FRAME_CONTENT_TYPE = "application/x-repro-frame"
DEFAULT_CONFIG = "opt-online+mem"
#: Upper bound on the JSON head line; a request head is tens of bytes, so
#: anything near this limit is garbage (or an attempt to buffer-bloat).
MAX_HEAD_BYTES = 8192

_HEAD_FIELDS = frozenset({"n", "config", "inject"})
_INJECT_FIELDS = frozenset({"site", "kind", "magnitude", "bit", "index", "element"})
_SITE_VALUES = frozenset(site.value for site in FaultSite)
_KIND_VALUES = frozenset(kind.value for kind in FaultKind)


class ProtocolError(Exception):
    """A malformed, oversized, or otherwise rejected request.

    ``status`` is the HTTP status the server answers with; ``kind`` is the
    machine-readable error class clients (and the ``server_errors`` counter)
    key on: ``malformed``, ``oversized``, ``draining``, ``internal``, ...
    """

    def __init__(self, message: str, *, status: int = 400, kind: str = "malformed") -> None:
        super().__init__(message)
        self.status = int(status)
        self.kind = str(kind)


@lru_cache(maxsize=256)
def canonical_config(name: str) -> Tuple[str, bool]:
    """Canonical scheme name and real-input flag for a request config string.

    Round-tripping through :class:`FTConfig` canonicalizes the name (so
    ``"opt-online+mem+fftlib"`` and ``"opt-online+mem"`` land in the same
    batch group) and validates it in one step.  Cached: the
    server sees the same handful of config strings millions of times.
    """

    try:
        config = FTConfig.from_name(name)
    except (KeyError, ValueError, TypeError) as exc:
        raise ProtocolError(f"unknown config {name!r}: {exc}") from None
    return config.to_name(), config.real


@dataclass(frozen=True)
class RequestHead:
    """Parsed JSON head of one transform request frame."""

    n: int
    #: canonical scheme name; ``(n, config)`` is the micro-batch group key
    config: str
    real: bool
    inject: Optional[Dict[str, Any]] = None

    @property
    def itemsize(self) -> int:
        return 8 if self.real else 16

    @property
    def payload_bytes(self) -> int:
        return self.n * self.itemsize


def parse_head(line: bytes) -> RequestHead:
    """Parse one request head line (hot: one ``json.loads`` per request)."""

    if len(line) > MAX_HEAD_BYTES:
        raise ProtocolError(
            f"head line of {len(line)} bytes exceeds the {MAX_HEAD_BYTES} byte limit",
            status=413,
            kind="oversized",
        )
    try:
        head = json.loads(line)
    except ValueError:
        raise ProtocolError("head line is not valid JSON") from None
    if not isinstance(head, dict):
        raise ProtocolError("head must be a JSON object")
    unknown = set(head) - _HEAD_FIELDS
    if unknown:
        raise ProtocolError(f"unknown head fields: {sorted(unknown)}")
    n = head.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ProtocolError(f"'n' must be an integer >= 2, got {n!r}")
    name = head.get("config", DEFAULT_CONFIG)
    if not isinstance(name, str):
        raise ProtocolError(f"'config' must be a scheme name string, got {name!r}")
    config, real = canonical_config(name)
    inject = head.get("inject")
    if inject is not None:
        inject = validate_inject(inject)
    return RequestHead(n=n, config=config, real=real, inject=inject)


def parse_payload(head: RequestHead, body: "memoryview | bytes") -> np.ndarray:
    """View the payload bytes as the request's input row (hot: zero-copy).

    The returned array is a read-only view of ``body``; the batch path
    copies it via ``np.stack`` and the scalar path takes a private
    ``np.array`` copy before any injector may mutate it.
    """

    expected = head.payload_bytes
    if len(body) != expected:
        raise ProtocolError(
            f"payload is {len(body)} bytes, expected {expected} "
            f"({head.n} x {'float64' if head.real else 'complex128'})"
        )
    return np.frombuffer(body, dtype=np.float64 if head.real else np.complex128)


def validate_inject(spec: Any) -> Dict[str, Any]:
    """Normalise a request's fault-injection spec (defaults filled in)."""

    if not isinstance(spec, dict):
        raise ProtocolError("'inject' must be a JSON object")
    unknown = set(spec) - _INJECT_FIELDS
    if unknown:
        raise ProtocolError(f"unknown inject fields: {sorted(unknown)}")
    site = spec.get("site", FaultSite.STAGE1_COMPUTE.value)
    if site not in _SITE_VALUES:
        raise ProtocolError(f"unknown fault site {site!r}")
    kind = spec.get("kind", FaultKind.ADD_CONSTANT.value)
    if kind not in _KIND_VALUES:
        raise ProtocolError(f"unknown fault kind {kind!r}")
    magnitude = spec.get("magnitude", 10.0)
    if isinstance(magnitude, bool) or not isinstance(magnitude, (int, float)):
        raise ProtocolError(f"inject field 'magnitude' must be a number, got {magnitude!r}")
    normalised: Dict[str, Any] = {"site": site, "kind": kind, "magnitude": float(magnitude)}
    for field in ("bit", "index", "element"):
        value = spec.get(field)
        if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
            raise ProtocolError(f"inject field {field!r} must be an integer, got {value!r}")
        normalised[field] = value
    return normalised


def build_injector(inject: Dict[str, Any]) -> FaultInjector:
    """An armed :class:`FaultInjector` from a validated inject spec."""

    spec = FaultSpec(
        site=FaultSite(inject["site"]),
        kind=FaultKind(inject["kind"]),
        magnitude=inject["magnitude"],
        bit=inject["bit"],
        index=inject["index"],
        element=inject["element"],
    )
    return FaultInjector(specs=[spec])


def encode_request(
    x: np.ndarray,
    config: str = DEFAULT_CONFIG,
    inject: Optional[Dict[str, Any]] = None,
) -> bytes:
    """One request frame (client side): head line + raw payload bytes."""

    canonical, real = canonical_config(config)
    # reprolint: alloc-ok - the request buffer itself (client side): one
    # contiguous dtype-normalised copy so the payload is exactly n items
    x = np.ascontiguousarray(x, dtype=np.float64 if real else np.complex128)
    if x.ndim != 1:
        raise ProtocolError(f"request payload must be one row, got shape {x.shape}")
    head: Dict[str, Any] = {"n": int(x.size), "config": canonical}
    if inject is not None:
        head["inject"] = validate_inject(inject)
    return json.dumps(head, separators=(",", ":")).encode("ascii") + b"\n" + x.tobytes()


def encode_response(meta: Dict[str, Any], payload: Optional[np.ndarray]) -> bytes:
    """One response body: JSON head line + raw little-endian spectrum bytes."""

    head = json.dumps(meta, separators=(",", ":")).encode("ascii") + b"\n"
    if payload is None:
        return head
    # reprolint: alloc-ok - the response buffer itself: one contiguous copy
    # of the spectrum row so the socket write is a single buffer
    return head + np.ascontiguousarray(payload).tobytes()


def parse_response(body: bytes) -> Tuple[Dict[str, Any], Optional[np.ndarray]]:
    """Split a response body back into its meta dict and spectrum row."""

    line, sep, payload = body.partition(b"\n")
    if not sep:
        raise ProtocolError("response is missing its head line")
    try:
        meta = json.loads(line)
    except ValueError:
        raise ProtocolError("response head is not valid JSON") from None
    if not isinstance(meta, dict):
        raise ProtocolError("response head must be a JSON object")
    if not payload:
        return meta, None
    bins = meta.get("bins")
    spectrum = np.frombuffer(payload, dtype=np.complex128)
    if isinstance(bins, int) and spectrum.size != bins:
        raise ProtocolError(f"response payload has {spectrum.size} bins, head says {bins}")
    return meta, spectrum
