"""The planner: lowering selection and plan caching ("wisdom").

FFTW's planner searches the space of decompositions and remembers the best
("wisdom").  The reproduction keeps the same interface at a much smaller
scale: the planner decides which capability requests (in-place Stockham,
native kernels, fused protection) a size lowers to, optionally by measuring,
and caches the resulting :class:`~repro.fftlib.plan.Plan` objects so
repeated requests (e.g. thousands of sub-FFT plans inside a fault campaign)
are free.

Planning for the internal engine also *lowers* the size into a compiled
iterative stage program (see :mod:`repro.fftlib.executor`): the radix
schedule, per-stage twiddle tables, butterfly matrices, and base kernel are
all resolved when the plan is created, so ``execute`` is a tight loop with no
recursion and no repeated factorization.  :meth:`Planner.lower` exposes the
lowering directly.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple, cast

import numpy as np

from repro.fftlib.backends import get_backend, resolve_backend_name
from repro.fftlib.plan import Plan, PlanDirection
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace

__all__ = ["PlannerPolicy", "Planner", "plan_fft", "get_default_planner"]


class PlannerPolicy(enum.Enum):
    """How much effort the planner spends choosing a lowering.

    ``ESTIMATE`` mirrors ``FFTW_ESTIMATE``: honour every supported request.
    ``MEASURE`` mirrors ``FFTW_MEASURE``: time the candidate lowerings on a
    random input of the requested size and keep the fastest.
    """

    ESTIMATE = "estimate"
    MEASURE = "measure"


@dataclass
class Planner:
    """Creates and caches :class:`Plan` objects.

    Attributes
    ----------
    policy:
        Planning effort (estimate vs. measure).
    wisdom:
        Cache of previously created plans keyed by
        ``(n, direction, backend, real, inplace, native)``.
    """

    policy: PlannerPolicy = PlannerPolicy.ESTIMATE
    wisdom: Dict[Tuple[int, PlanDirection, str, bool, bool, bool], Plan] = field(
        default_factory=dict
    )
    #: ping-pong vs in-place Stockham timings per ``"n"`` (MEASURE mode);
    #: they ride along in exported wisdom so an imported planner reuses the
    #: recorded winner without re-timing.
    inplace_measurements: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: fused-protected-program vs legacy-scheme timings per ``"n"`` (MEASURE
    #: mode, see :meth:`fused_wins`); same export/import discipline.
    fused_measurements: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: native-kernel vs pure-NumPy stage-body timings per ``"n"`` (MEASURE
    #: mode, see :meth:`_native_wins`); same export/import discipline.
    native_measurements: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: guards every wisdom/measurement mutation: the default planner is
    #: process-wide shared state hit concurrently by the serve daemon's
    #: workers, so unlocked writes here were a latent stampede/lost-update
    #: bug of exactly the class reprolint's lock-discipline rule flags.
    #: Reads stay unlocked (CPython dict reads are atomic; a stale miss just
    #: re-plans and the locked insert keeps the first winner).
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
        buffer plus one half-size scratch; :meth:`Plan.execute_inplace`);
        ESTIMATE honours the request whenever the size supports it - the
        caller asking for in-place execution *is* the memory-pressure
        signal - while MEASURE times ping-pong vs Stockham once and records
        the winner in wisdom.
        ``native`` (the default) lowers to the generated-C kernel tier
        (:mod:`repro.fftlib.native`), whose programs run the C stage bodies
        for calls past the executor's size crossover; ESTIMATE honours it
        whenever the tier is available, MEASURE times native vs pure-NumPy
        stage bodies once (recorded in wisdom) and keeps the winner.  It
        never fails: an unavailable tier silently keeps the pure-NumPy
        lowering and the plan's ``describe()`` reports why.
        ``native=False`` requests the pure-NumPy lowering explicitly.
        """

        backend_name = resolve_backend_name(backend)
        real = bool(real)
        requested_inplace, inplace_note = self._normalize_inplace(
            backend_name, real, inplace
        )
        requested_native = self._normalize_native(backend_name, native)
        request_notes = [inplace_note] if inplace_note else []
        key = (int(n), direction, backend_name, real, requested_inplace, requested_native)
        cached = self.wisdom.get(key)
        if cached is not None:
            # Request-level collapses (real/backend capability) alias onto
            # the plain key, so they are reported per request, hit or miss.
            if request_notes:
                self._record_fallbacks(int(n), request_notes)
            return cached

        lowered_inplace = self._effective_inplace(int(n), requested_inplace)
        lowered_native = self._effective_native(int(n), requested_native)
        notes = list(request_notes)
        if requested_inplace and not lowered_inplace:
            notes.append(
                f"inplace-fallback({self._inplace_collapse_reason(int(n))})"
            )
        if requested_native and not lowered_native:
            # _effective_native keeps unsupported requests (describe reports
            # them); a dropped flag can only mean a measured loss.
            notes.append("native-fallback(measured slower than pure NumPy)")
        if notes:
            self._record_fallbacks(int(n), notes)
        plan = Plan(
            int(n), direction, 0.0, backend_name, real, lowered_inplace,
            lowered_native, tuple(notes),
        )
        # two racing planners build equivalent plans; setdefault keeps the
        # first one so every caller shares a single Plan object per key
        with self._lock:
            return self.wisdom.setdefault(key, plan)

    # ------------------------------------------------------------------
    @staticmethod
    def _record_fallbacks(n: int, notes: "list[str]") -> None:
        """Count + trace each ``kind-fallback(reason)`` capability fallback."""

        for note in notes:
            kind, _, rest = note.partition("-fallback(")
            reason = rest[:-1] if rest.endswith(")") else rest
            _metrics.inc("capability_fallbacks", kind=kind, reason=reason)
            if _trace.active:
                _trace.emit("fallback", kind=kind, n=n, reason=reason)

    @staticmethod
    def _record_race(
        race: str, n: int, challenger: str, incumbent: str, timings: Dict[str, float]
    ) -> None:
        """Count + trace the outcome of one freshly measured wisdom race."""

        winner = challenger if timings[challenger] < timings[incumbent] else incumbent
        _metrics.inc("wisdom_measure_races", race=race, winner=winner)
        if _trace.active:
            _trace.emit(
                "measure-race",
                race=race,
                n=int(n),
                winner=winner,
                timings={name: float(t) for name, t in timings.items()},
            )

    @staticmethod
    def _inplace_collapse_reason(n: int) -> str:
        """Why a supported inplace request kept the ping-pong program."""

        from repro.fftlib.executor import stockham_supported

        if not stockham_supported(n):
            return "no Stockham lowering for this size"
        return "measured slower than ping-pong"

    # ------------------------------------------------------------------
    def _normalize_inplace(
        self, backend_name: str, real: bool, inplace: bool
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

    def _effective_native(
        self, n: int, native: bool, *, allow_timing: bool = True
    ) -> bool:
        """Whether the plan actually requests native-kernel stage bodies.

        ESTIMATE mode honours any supported request without touching the
        kernel library (the lowering itself degrades silently, with a
        reason, if the tier or the program shape cannot run natively).
        MEASURE mode times native vs pure-NumPy stage bodies once (recorded
        under ``native_measurements[str(n)]``, exported with the wisdom)
        and keeps pure NumPy when it measured faster.
        ``allow_timing=False`` (wisdom import) never benchmarks.
        """

        if not native or self.policy is not PlannerPolicy.MEASURE:
            return native
        timings = self.native_measurements.get(str(n))
        if timings and "native" in timings and "numpy" in timings:
            return timings["native"] < timings["numpy"]
        if not allow_timing:
            return True
        from repro.fftlib.executor import _NATIVE_MIN_ELEMENTS
        from repro.fftlib.native import native_supported

        if n < _NATIVE_MIN_ELEMENTS or not native_supported():
            # Nothing to race: a single call this small runs the NumPy
            # bodies either way (the program still hands batches past the
            # crossover to C), and a tier that is down (no compiler /
            # disabled) keeps the *request* so describe() reports the
            # fallback instead of silently dropping the flag.
            return True
        return self._native_wins(n)

    def _native_wins(self, n: int) -> bool:
        """MEASURE mode: time native vs pure-NumPy stage bodies, remember."""

        key = str(n)
        timings = self.native_measurements.get(key)
        if not timings or "native" not in timings or "numpy" not in timings:
            from repro.fftlib.executor import get_program

            pure = get_program(n, native=False)
            native_program = get_program(n)
            if native_program.native is None:
                # The size has no native lowering (e.g. Bluestein base):
                # record nothing - there is no second candidate to race.
                return True
            rng = np.random.default_rng(9753 + n)
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            timings: Dict[str, float] = {}
            for label, fn in (
                ("numpy", lambda: pure.execute(x)),
                ("native", lambda: native_program.execute(x)),
            ):
                fn()  # warm-up / twiddle-cache + work-buffer fill
                best = float("inf")
                for _ in range(3):
                    start = time.perf_counter()
                    fn()
                    best = min(best, time.perf_counter() - start)
                timings[label] = best
            with self._lock:
                self.native_measurements[key] = timings
            self._record_race("native-vs-numpy", n, "native", "numpy", timings)
        return timings["native"] < timings["numpy"]

    def _effective_inplace(
        self, n: int, inplace: bool, *, allow_timing: bool = True
    ) -> bool:
        """Whether the plan actually lowers to the Stockham program.

        ESTIMATE mode honours any supported request (the caller asking for
        in-place execution is itself the profitability signal - the point
        is the halved working set).  MEASURE mode times the two lowerings
        once (recorded under ``inplace_measurements[str(n)]``, exported
        with the wisdom) and keeps ping-pong when it measured faster:
        ``Plan.execute_inplace`` preserves the overwrite semantics either
        way.  ``allow_timing=False`` (wisdom import) never benchmarks.
        """

        if not inplace:
            return False
        from repro.fftlib.executor import stockham_supported

        if not stockham_supported(n):
            return False
        if self.policy is PlannerPolicy.MEASURE:
            timings = self.inplace_measurements.get(str(n))
            if timings and "pingpong" in timings and "stockham" in timings:
                return timings["stockham"] < timings["pingpong"]
            if not allow_timing:
                return True
            return self._stockham_wins(n)
        return True

    def _stockham_wins(self, n: int) -> bool:
        """MEASURE mode: time ping-pong vs Stockham once, remember the winner."""

        key = str(n)
        timings = self.inplace_measurements.get(key)
        if not timings or "pingpong" not in timings or "stockham" not in timings:
            from repro.fftlib.executor import (
                get_program,
                get_stockham_program,
                stockham_supported,
            )

            if not stockham_supported(n):
                # every caller today pre-checks, but timing an unsupported
                # size must stay a clean "ping-pong wins", not a KeyError
                return False
            pingpong = get_program(n)
            stockham = get_stockham_program(n)
            rng = np.random.default_rng(8765 + n)
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            buf = np.empty(n, dtype=np.complex128)

            def run_stockham() -> None:
                np.copyto(buf, x)
                stockham.execute_inplace(buf)

            timings: Dict[str, float] = {}
            for label, fn in (
                ("pingpong", lambda: pingpong.execute(x)),
                ("stockham", run_stockham),
            ):
                fn()  # warm-up / twiddle-cache + scratch fill
                best = float("inf")
                for _ in range(3):
                    start = time.perf_counter()
                    fn()
                    best = min(best, time.perf_counter() - start)
                timings[label] = best
            with self._lock:
                self.inplace_measurements[key] = timings
            self._record_race("stockham-vs-pingpong", n, "stockham", "pingpong", timings)
        return timings["stockham"] < timings["pingpong"]

    def fused_wins(
        self,
        n: int,
        fused_fn: "Callable[[np.ndarray], object]",
        scheme_fn: "Callable[[np.ndarray], object]",
    ) -> bool:
        """Whether the fused protected program should serve fault-free runs.

        ESTIMATE mode trusts the fused lowering: it wraps the fastest
        compiled program and its verification operators are precomputed, so
        it is the winner by construction.  MEASURE mode times one fused
        execution against one legacy scheme execution (callables supplied by
        the caller - the protected plan lives above this layer) and records
        the winner under ``fused_measurements[str(n)]``, exported with the
        wisdom like the in-place timings, so a seeded planner never
        re-times a size.
        """

        if self.policy is not PlannerPolicy.MEASURE:
            return True
        key = str(n)
        timings = self.fused_measurements.get(key)
        if not timings or "fused" not in timings or "scheme" not in timings:
            rng = np.random.default_rng(2468 + n)
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            timings: Dict[str, float] = {}
            for label, fn in (("fused", fused_fn), ("scheme", scheme_fn)):
                fn(x)  # warm-up / twiddle-cache + scratch fill
                best = float("inf")
                for _ in range(3):
                    start = time.perf_counter()
                    fn(x)
                    best = min(best, time.perf_counter() - start)
                timings[label] = best
            with self._lock:
                self.fused_measurements[key] = timings
            self._record_race("fused-vs-scheme", n, "fused", "scheme", timings)
        return timings["fused"] < timings["scheme"]

    # ------------------------------------------------------------------
    def lower(
        self,
        n: int,
        real: bool = False,
        inplace: bool = False,
        native: bool = True,
    ) -> Any:
        """The compiled :class:`~repro.fftlib.executor.StageProgram` for ``n``.

        ``real=True`` lowers the packed real-input transform
        (:class:`~repro.fftlib.executor.RealStageProgram`) instead;
        ``inplace=True`` lowers the in-place Stockham program
        (:class:`~repro.fftlib.executor.StockhamStageProgram`) when the
        size supports one.  Lowering is memoized process-wide (programs are
        immutable and backend-independent), so this is cheap after the
        first call per size; plans created by :meth:`plan` reference the
        same objects.
        """

        from repro.fftlib.executor import (
            get_program,
            get_real_program,
            get_stockham_program,
            stockham_supported,
        )

        native = bool(native)
        if real:
            return get_real_program(int(n), native=native)
        if inplace and stockham_supported(int(n)):
            return get_stockham_program(int(n), native=native)
        return get_program(int(n), native=native)

    # ------------------------------------------------------------------
    def forget(self) -> None:
        """Drop all accumulated wisdom."""

        with self._lock:
            self.wisdom.clear()
            self.inplace_measurements.clear()
            self.fused_measurements.clear()
            self.native_measurements.clear()

    def export_wisdom(self) -> Dict[str, object]:
        """Serialise wisdom as ``{"n:direction:backend[:real][:ip][:pure]": description}``.

        ``:pure`` marks an explicit ``native=False`` (pure-NumPy) request;
        native is the default and carries no key part.  Each value
        describes what the key lowers to (the compiled program, or the plan
        itself on foreign backends); :meth:`import_wisdom`
        re-derives the lowering and ignores it.  The ping-pong-vs-Stockham,
        fused-vs-scheme, and native-vs-NumPy timings ride along under the
        reserved ``"__inplace_measurements__"`` /
        ``"__fused_measurements__"`` / ``"__native_measurements__"`` keys,
        so a MEASURE planner seeded from this dict never re-times a size it
        has already seen - the whole mapping stays JSON-serialisable.
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
        if self.inplace_measurements:
            data["__inplace_measurements__"] = {
                key: dict(timings) for key, timings in self.inplace_measurements.items()
            }
        if self.fused_measurements:
            data["__fused_measurements__"] = {
                key: dict(timings) for key, timings in self.fused_measurements.items()
            }
        if self.native_measurements:
            data["__native_measurements__"] = {
                key: dict(timings) for key, timings in self.native_measurements.items()
            }
        return data

    def import_wisdom(self, data: Dict[str, object]) -> None:
        """Re-create plans from :meth:`export_wisdom` output.

        Per-key values are ignored, and so are key parts and reserved keys
        this planner does not know.  Older formats therefore still import:
        the pre-backend two-field keys (``"n:direction"``) map to the
        default backend, three-field keys to ``real=False``, and snapshots
        that carry thread-count key parts (``":t2"``), strategy names, or
        ``"__measurements__"`` / ``"__thread_measurements__"`` /
        ``"__programs__"`` entries import as ordinary serial plans.  Keys
        without ``:pure`` (including the retired ``:nat`` part) import as
        default, native-lowered plans.
        Importing re-lowers the stage programs, leaving the
        compiled-program cache warm as well.
        """

        timing_dicts = cast(Dict[str, Dict[str, Dict[str, float]]], data)
        with self._lock:
            for key, timings in dict(timing_dicts.get("__inplace_measurements__", {})).items():
                self.inplace_measurements[str(key)] = {
                    str(name): float(t) for name, t in dict(timings).items()
                }
            for key, timings in dict(timing_dicts.get("__fused_measurements__", {})).items():
                self.fused_measurements[str(key)] = {
                    str(name): float(t) for name, t in dict(timings).items()
                }
            for key, timings in dict(timing_dicts.get("__native_measurements__", {})).items():
                self.native_measurements[str(key)] = {
                    str(name): float(t) for name, t in dict(timings).items()
                }
        for key in data:
            if key.startswith("__"):
                continue
            parts = key.split(":")
            n = int(parts[0])
            direction = PlanDirection(parts[1])
            backend = resolve_backend_name(parts[2] if len(parts) > 2 else None)
            extras = parts[3:]
            real = "real" in extras
            inplace = "ip" in extras
            native = self._normalize_native(backend, "pure" not in extras)
            # plan lowering happens outside the lock (it may take the
            # executor's own program-cache lock); only the insert is guarded
            imported = Plan(
                n,
                direction,
                backend=backend,
                real=real,
                inplace=self._effective_inplace(n, inplace, allow_timing=False),
                native=self._effective_native(n, native, allow_timing=False),
            )
            with self._lock:
                self.wisdom[(n, direction, backend, real, inplace, native)] = imported


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
