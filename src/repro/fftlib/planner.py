"""The planner: lowering selection and plan caching ("wisdom").

FFTW's planner searches the space of decompositions and remembers the best
("wisdom").  The reproduction keeps the same interface at a much smaller
scale: the planner resolves which capability requests (in-place Stockham,
native kernels) a size can honour and caches the resulting
:class:`~repro.fftlib.plan.Plan` objects so repeated requests (e.g.
thousands of sub-FFT plans inside a fault campaign) are free.  Every choice
is static - the Stockham support test and the executor's native crossover -
so there is no measuring mode and a key lowers the same way in every
process.

Planning for the internal engine also *lowers* the size into a compiled
iterative stage program (see :mod:`repro.fftlib.executor`): the radix
schedule, per-stage twiddle tables, butterfly matrices, and base kernel are
all resolved when the plan is created (:attr:`Plan.program`), so
``execute`` is a tight loop with no recursion and no repeated factorization.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fftlib.backends import get_backend, resolve_backend_name
from repro.fftlib.executor import stockham_supported
from repro.fftlib.plan import Plan, PlanDirection
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace

__all__ = ["Planner", "plan_fft", "get_default_planner"]

#: ``(n, direction, backend, real, inplace, native)``: one wisdom entry.
WisdomKey = Tuple[int, PlanDirection, str, bool, bool, bool]


@dataclass
class Planner:
    """Creates and caches :class:`Plan` objects.

    Attributes
    ----------
    wisdom:
        Cache of previously created plans keyed by
        ``(n, direction, backend, real, inplace, native)``.
    """

    wisdom: Dict[WisdomKey, Plan] = field(default_factory=dict)
    #: guards every wisdom mutation: the default planner is process-wide
    #: shared state that any caller's thread may plan through, so inserts
    #: and clears are locked (reprolint's lock-discipline rule enforces
    #: it).  Reads stay unlocked (CPython dict reads are atomic; a stale
    #: miss just re-plans and the locked insert keeps the first plan).
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def plan(
        self,
        n: int,
        direction: PlanDirection = PlanDirection.FORWARD,
        backend: Optional[str] = None,
        real: bool = False,
        inplace: bool = False,
        native: bool = True,
    ) -> Plan:
        """Return a (cached) plan for an ``n``-point transform.

        ``backend`` selects the sub-FFT kernel (see
        :mod:`repro.fftlib.backends`); plans are cached per backend so a
        process can mix kernels freely.  ``real`` requests the packed
        real-input transform (``n`` real samples <-> ``n//2 + 1`` bins).
        ``inplace`` requests the in-place Stockham lowering (caller's
        buffer plus one half-size scratch; :meth:`Plan.execute_inplace`),
        honoured whenever the size supports it - the caller asking for
        in-place execution *is* the memory-pressure signal.
        ``native`` (the default) lowers to the generated-C kernel tier
        (:mod:`repro.fftlib.native`), whose programs run the C stage bodies
        for calls past the executor's size crossover.  It never fails: an
        unavailable tier silently keeps the pure-NumPy lowering and the
        plan's ``describe()`` reports why.  ``native=False`` requests the
        pure-NumPy lowering explicitly.
        """

        n = int(n)
        backend_name = resolve_backend_name(backend)
        real = bool(real)
        requested_inplace, inplace_note = self._normalize_inplace(
            backend_name, real, inplace
        )
        requested_native = self._normalize_native(backend_name, native)
        notes = [inplace_note] if inplace_note else []
        key = (n, direction, backend_name, real, requested_inplace, requested_native)
        cached = self.wisdom.get(key)
        if cached is not None:
            # Request-level collapses (real/backend capability) alias onto
            # the plain key, so they are reported per request, hit or miss.
            if notes:
                self._record_fallbacks(n, notes)
            return cached

        lowered_inplace = requested_inplace and stockham_supported(n)
        if requested_inplace and not lowered_inplace:
            notes.append("inplace-fallback(no Stockham lowering for this size)")
        if notes:
            self._record_fallbacks(n, notes)
        plan = Plan(
            n, direction, 0.0, backend_name, real, lowered_inplace,
            requested_native, tuple(notes),
        )
        # two racing planners build equivalent plans; setdefault keeps the
        # first one so every caller shares a single Plan object per key
        with self._lock:
            return self.wisdom.setdefault(key, plan)

    # ------------------------------------------------------------------
    @staticmethod
    def _record_fallbacks(n: int, notes: List[str]) -> None:
        """Count + trace each ``kind-fallback(reason)`` capability fallback."""

        for note in notes:
            kind, _, rest = note.partition("-fallback(")
            reason = rest[:-1] if rest.endswith(")") else rest
            _metrics.inc("capability_fallbacks", kind=kind, reason=reason)
            if _trace.active:
                _trace.emit("fallback", kind=kind, n=n, reason=reason)

    @staticmethod
    def _normalize_inplace(
        backend_name: str, real: bool, inplace: bool
    ) -> Tuple[bool, Optional[str]]:
        """Resolve the requested ``inplace`` knob.

        Only the ``fftlib`` backend lowers Stockham programs, and real
        plans change their output length (no in-place form); everywhere
        else the knob is inert.  Returns ``(flag, note)`` where ``note`` is
        the ``inplace-fallback(...)`` wording when the request was
        collapsed.
        """

        if not inplace:
            return False, None
        if real:
            return False, "inplace-fallback(real plans have no in-place form)"
        if not getattr(get_backend(backend_name), "supports_inplace", False):
            return False, (
                f"inplace-fallback(backend '{backend_name}' has no Stockham lowering)"
            )
        return True, None

    @staticmethod
    def _normalize_native(backend_name: str, native: bool) -> bool:
        """Resolve the ``native`` knob.

        Only backends advertising
        :attr:`~repro.fftlib.backends.FFTBackend.supports_native` lower the
        generated-C stage bodies.  Foreign kernels are already compiled
        code, so there the (default) request is silently inert: no
        fallback note, unlike ``inplace``.
        """

        return bool(native) and bool(
            getattr(get_backend(backend_name), "supports_native", False)
        )

    # ------------------------------------------------------------------
    def forget(self) -> None:
        """Drop all accumulated wisdom."""

        with self._lock:
            self.wisdom.clear()

    def export_wisdom(self) -> Dict[str, object]:
        """Serialise wisdom as ``{"n:direction:backend[:real][:ip][:pure]": description}``.

        ``:pure`` marks an explicit ``native=False`` (pure-NumPy) request;
        native is the default and carries no key part.  Each value
        describes what the key lowers to (the compiled program, or the plan
        itself on foreign backends); :meth:`import_wisdom` re-derives the
        lowering and ignores it.  The mapping is JSON-serialisable.
        """

        data: Dict[str, object] = {}
        for (n, direction, backend, real, inplace, native), plan in self.wisdom.items():
            key = f"{n}:{direction.value}:{backend}"
            if real:
                key += ":real"
            if inplace:
                key += ":ip"
            if not native and self._normalize_native(backend, True):
                key += ":pure"
            program = plan.program
            data[key] = program.describe() if program is not None else plan.describe()
        return data

    def import_wisdom(self, data: object) -> None:
        """Re-create plans from :meth:`export_wisdom` output.

        Per-key values are ignored, and so are key parts and reserved
        ``"__"``-prefixed entries this planner does not know.  Older
        formats therefore still import: the pre-backend two-field keys
        (``"n:direction"``) map to the default backend, three-field keys to
        ``real=False``, and snapshots that carry thread-count key parts
        (``":t2"``), strategy names, or the program listings and lowering
        timings earlier planners stored under reserved keys import as
        ordinary plans.  Keys without ``:pure`` (including the
        retired ``:nat`` part) import as default, native-lowered plans.
        Importing re-lowers the stage programs, leaving the
        compiled-program cache warm as well.

        Raises :class:`ValueError` when ``data`` is not a dict, or naming
        the first key with fewer than two fields, a size that is not a
        positive integer, an unknown direction, or an unregistered backend;
        nothing is imported then.
        """

        if not isinstance(data, dict):
            raise ValueError(
                f"a wisdom snapshot is a JSON object, got {type(data).__name__}"
            )
        keys = [self._parse_key(str(key)) for key in data if not str(key).startswith("__")]
        for key in keys:
            n, direction, backend, real, inplace, native = key
            # plan lowering happens outside the lock (it may take the
            # executor's own program-cache lock); only the insert is guarded
            imported = Plan(
                n,
                direction,
                backend=backend,
                real=real,
                inplace=inplace and stockham_supported(n),
                native=native,
            )
            with self._lock:
                self.wisdom[key] = imported

    @classmethod
    def _parse_key(cls, key: str) -> WisdomKey:
        """The wisdom key an exported ``"n:direction[:backend[:part...]]"`` names."""

        parts = key.split(":")
        if len(parts) < 2:
            raise ValueError(f"wisdom key {key!r} needs at least 'n:direction'")
        if not parts[0].isdecimal() or int(parts[0]) <= 0:
            raise ValueError(f"wisdom key {key!r}: size {parts[0]!r} is not a positive integer")
        n = int(parts[0])
        try:
            direction = PlanDirection(parts[1])
        except ValueError:
            raise ValueError(
                f"wisdom key {key!r}: unknown direction {parts[1]!r} "
                f"(expected {' or '.join(d.value for d in PlanDirection)})"
            ) from None
        try:
            backend = resolve_backend_name(parts[2] if len(parts) > 2 else None)
        except KeyError as exc:
            raise ValueError(f"wisdom key {key!r}: {exc.args[0]}") from None
        extras = parts[3:]
        real = "real" in extras
        # the key plan() would file this request under
        inplace, _ = cls._normalize_inplace(backend, real, "ip" in extras)
        native = cls._normalize_native(backend, "pure" not in extras)
        return (n, direction, backend, real, inplace, native)


_DEFAULT_PLANNER = Planner()


def get_default_planner() -> Planner:
    """Return the shared process-wide planner."""

    return _DEFAULT_PLANNER


def plan_fft(
    n: int,
    direction: PlanDirection = PlanDirection.FORWARD,
    backend: Optional[str] = None,
    real: bool = False,
    inplace: bool = False,
    native: bool = True,
) -> Plan:
    """Convenience wrapper around the default planner."""

    return _DEFAULT_PLANNER.plan(n, direction, backend, real, inplace, native)
