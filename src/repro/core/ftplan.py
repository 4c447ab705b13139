"""The plan-centric public API: :func:`plan`, :class:`FTPlan`, the wisdom cache.

The paper's premise is FFTW's *plan once, execute many*: all checksum weight
vectors, twiddle tables, and sub-plans of a protected transform are
size-dependent but data-independent, so they should be paid for once.  This
module is that split for the ABFT schemes:

>>> import numpy as np, repro
>>> p = repro.plan(4096)                       # cached FTPlan (opt-online+mem)
>>> x = np.random.default_rng(0).standard_normal(4096) + 0j
>>> bool(np.allclose(p.execute(x).output, np.fft.fft(x)))
True
>>> repro.plan(4096) is p                      # wisdom: same object back
True

``plan()`` consults a thread-safe, size-bounded LRU cache keyed by
``(n, FTConfig)`` - the analogue of FFTW wisdom.  The returned
:class:`FTPlan` owns the scheme, the plan-time checksum weights and one
protected kernel, the paper's offline scheme (Algorithm 1) over a tile of
rows: (1) encode ``c . x`` per row - with memory fault tolerance also the
locating pair ``w1 . x``, ``w2 . x``, and the carried surrogate ``(F w) . x``
when the transform overwrites its input - and each row's exact norm, which
scales every threshold; (2) visit the INPUT fault site; (3) run the
transform callable and its tap ``r . X``; (4) visit the OUTPUT fault site;
(5) check every row; (6) recover the flagged rows in one retry loop of at
most ``max_retries`` recoveries: while the input survives, repair a located
corruption of it and recompute, once it is overwritten, repair the output
from the carried surrogate.

``execute``, ``inverse`` and ``execute_many``, with their ``out=`` and real
forms, are that kernel at different tile counts, around a transform
callable picked at plan time: the compiled or native program through the
tap (:class:`~repro.fftlib.protected.ProtectedStageProgram`), a foreign
backend's ``fft``, the real program with its interior check as a second
tapped pair, or the in-place Stockham program; an unprotected plan runs
the same routes with no checks.  Only a live injector on ``execute`` or a
complex ``inverse`` takes the paper-exact scheme path.
Every execution runs on the caller's thread.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.core.base import BatchResult, SchemeResult
from repro.core.checksums import halfcomplex_sum, repair_single_error
from repro.core.config import FTConfig
from repro.core.constants import SchemeConstants
from repro.core.detection import FTReport
from repro.core.thresholds import ThresholdPolicy, residual_exceeds
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSite
from repro.fftlib.backends import default_backend_name, get_backend, resolve_backend_name
from repro.fftlib.protected import finish_inverse
from repro.telemetry import trace as _trace
from repro.utils.validation import as_complex_vector, as_real_array, ensure_positive_int

if TYPE_CHECKING:  # pragma: no cover - imported lazily by profile()
    from repro.telemetry.profile import ProfileResult

__all__ = [
    "BatchResult",
    "FTPlan",
    "PlanCacheInfo",
    "plan",
    "plan_cache_info",
    "clear_plan_cache",
    "set_plan_cache_limit",
]

#: Working-set budget of one batch tile, in input elements: the encode,
#: transform and tap of a tile then share the cache.
TILE_ELEMENTS = 1 << 15


class _Route(NamedTuple):
    """One direction of a plan through the kernel, fixed when it is built.

    ``transform(tile, dest) -> (output, taps)`` may write into ``dest``.
    ``taps`` and the references ``encode(tile)`` hold one row per check at
    ``sites`` (end-to-end, then the real interior pair), one column per tile
    row; ``retap(output)`` is the end-to-end tap alone.  ``units`` scale a
    row's exact sigma0 into one threshold per check, then the memory check's
    (from a packed real spectrum when ``packed``).  ``pair`` is the input's
    locating pair, ``carried`` the surrogate weights and their output pair.
    """

    transform: Callable[..., Tuple[np.ndarray, Any]]
    encode: Any = None
    retap: Any = None
    sites: Tuple[str, ...] = ()
    units: Any = None
    packed: bool = False
    pair: Any = None
    carried: Any = None
    overwrites: bool = False


class FTPlan:
    """A reusable, cached, fault-tolerant transform of one size and config.

    Create via :func:`plan` (which caches) or directly (which does not).
    Plans hold no per-execution state, so one plan may be shared freely
    across threads and executed concurrently.
    """

    def __init__(self, n: int, config: Union[FTConfig, str, None] = None) -> None:
        if config is None:
            config = FTConfig()
        elif isinstance(config, str):
            config = FTConfig.from_name(config)
        self.n = ensure_positive_int(n, name="n")
        self.config = config
        # All data-independent ABFT state is computed once, here, and shared
        # by the scheme and the kernel.
        self.constants = SchemeConstants.for_config(self.n, config)
        self.scheme = config.build(self.n, constants=self.constants)
        self.dtype = np.dtype(config.dtype)
        self._name = self.scheme.name
        self._policy: ThresholdPolicy = self.scheme.thresholds
        self._protected = config.kind != "plain"
        #: real-input mode: float64 input, packed n//2 + 1 output layout
        self._real = bool(config.real)
        self.bins = self.n // 2 + 1
        self._inplace = bool(config.inplace)
        self._backend = get_backend(self.backend)
        self._program: Any = None
        self._real_program: Any = None
        self._inplace_program: Any = None
        self._tap: Any = None
        if self._real and self.backend == "fftlib":
            from repro.fftlib.executor import get_real_program

            self._real_program = get_real_program(self.n)
        elif not self._real:
            from repro.fftlib.executor import get_program, get_stockham_program, stockham_supported
            from repro.fftlib.protected import BackendProgram, ProtectedStageProgram

            self._program = BackendProgram(self._backend)
            if self.backend == "fftlib":
                self._program = get_program(self.n)
                if self._inplace and stockham_supported(self.n):
                    self._inplace_program = get_stockham_program(self.n)
            if self._protected:
                self._tap = ProtectedStageProgram.build(self.constants, self._program)
        #: the real forward's interior pair ``c_h . z = r_h . Z`` (the fold
        #: alone leaves one error phase per bin unseen)
        self._interior = self._real_program is not None and self.constants.c_h is not None
        # Recovery budget: explicit flags win, else the built scheme's own.
        if config.flags is not None:
            self._max_retries = int(config.flags.max_retries)
        elif hasattr(self.scheme, "flags"):
            self._max_retries = int(self.scheme.flags.max_retries)
        else:
            self._max_retries = int(getattr(self.scheme, "max_retries", 2))
        self._routes: Dict[Tuple[bool, bool, bool], _Route] = {}
        self._forward = self._route()
        # single real vectors run the real programs' 1-D path (a batch row
        # differs in the last bit); a complex vector is a one-row tile
        self._forward_one = self._route(vector=self._real)
        self._backward_one = self._route(backward=True, vector=self._real)

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        return self.scheme.plan.m

    @property
    def k(self) -> int:
        return self.scheme.plan.k

    @property
    def backend(self) -> str:
        return self.scheme.plan.backend

    @property
    def scheme_name(self) -> str:
        return self.scheme.name

    @property
    def thresholds(self) -> ThresholdPolicy:
        return self.scheme.thresholds

    # ------------------------------------------------------------------
    def execute(
        self,
        x: np.ndarray,
        injector: Optional[FaultInjector] = None,
        *,
        out: Optional[np.ndarray] = None,
    ) -> SchemeResult:
        """Protected forward transform of one length-``n`` vector.

        Fault-free calls run the kernel on one row (the spectrum is bitwise
        the plan's own program's); a live injector takes the paper-exact
        scheme path.  Real plans take ``n`` float64 samples and return the
        packed ``n//2 + 1`` spectrum (``numpy.fft.rfft`` layout).  ``out``
        selects the overwrite path (Section 5 of the paper): the result is
        written into the given buffer, which for complex plans may be ``x``
        itself, and the input is *destroyed*; with memory fault tolerance
        the checksums carry an input surrogate (``w . X = (F w) . x``) that
        locates and repairs a corrupted element of the overwritten buffer.
        That path visits only the INPUT/OUTPUT fault sites.
        """

        if out is not None:
            return self._execute_out(x, injector, out)
        if injector is not None and injector.is_live:
            data = as_real_array(x) if self._real else x
            return self._cast_result(self.scheme.execute(data, injector))
        if self._real:
            return self._single(self._forward_one, as_real_array(x), None)
        return self._single(self._forward_one, as_complex_vector(x, name="x"), None)

    __call__ = execute

    def inverse(
        self, spectrum: np.ndarray, injector: Optional[FaultInjector] = None
    ) -> SchemeResult:
        """Protected inverse transform.

        Complex calls use ``ifft(X)[j] = F(X)[(n - j) mod n] / n``: the
        kernel runs the forward transform and its check on ``X`` itself and
        one finish pass reverses and scales the output.  A live injector
        takes the paper-exact scheme through ``conj(fft(conj(X))) / n``.
        Real plans map the packed spectrum back to ``n`` real samples
        through the kernel, checked by ``c . x = r . X`` with the fold on
        the packed input; INPUT strikes the spectrum, OUTPUT the signal.
        """

        if self._real:
            packed = np.asarray(spectrum, dtype=np.complex128)
            return self._single(self._backward_one, packed, injector)
        if injector is None or not injector.is_live:
            return self._single(self._backward_one, as_complex_vector(spectrum, name="X"), None)
        result = self.scheme.execute(np.conj(spectrum, dtype=np.complex128), injector)
        # conj(X) / n in place through the fresh result's float64 view
        # (multiplying by 1/n is what numpy's division by a real n computes)
        parts = result.output.view(np.float64)
        parts *= 1.0 / self.n
        np.negative(parts[1::2], out=parts[1::2])
        return self._cast_result(result)

    def execute_many(
        self,
        X: np.ndarray,
        axis: int = -1,
        injector: Optional[FaultInjector] = None,
        *,
        out: Optional[np.ndarray] = None,
    ) -> BatchResult:
        """Protected transform of every length-``n`` slice of ``X`` along ``axis``.

        The rows run through the kernel in tiles of at most
        ``TILE_ELEMENTS`` elements; a flagged row is recovered like a single
        call's.  With an injector the batch is one tile whose input and
        output arrays faults may strike; recovery reruns are injector-free.
        ``out`` selects the batched overwrite path of :meth:`execute` (for
        complex plans ``out`` may be ``X`` itself; real plans take a
        separate packed-spectrum buffer).
        """

        X = np.asarray(X)
        if X.ndim == 0:
            raise ValueError("execute_many expects at least a 1-D array")
        width = self.bins if self._real else self.n
        overwrite = out is not None and not self._real
        if out is not None:  # validated before paying for the protected batch
            shape = list(X.shape)
            shape[axis] = width
            out = self._check_out(out, tuple(shape))
            if overwrite and out is not X:
                np.copyto(out, np.asarray(X, dtype=np.complex128))
        source = out if overwrite else X
        # rows along the last axis need no moveaxis round trip
        last = axis == -1 or axis == source.ndim - 1
        moved = source if last else np.moveaxis(source, axis, -1)
        if moved.shape[-1] != self.n:
            raise ValueError(f"axis {axis} has length {moved.shape[-1]}, expected {self.n}")
        if self._real:
            rows = as_real_array(moved, name="X").reshape(-1, self.n)
        else:
            rows = moved.astype(np.complex128, copy=False).reshape(-1, self.n)
        # Non-last-axis layouts overwrite a private contiguous matrix whose
        # spectra are scattered back below.
        scatter = overwrite and not (np.shares_memory(rows, out) and rows.flags.c_contiguous)
        if scatter:
            rows = np.ascontiguousarray(rows)
        report = FTReport(scheme=self._name + ("[batch,inplace]" if overwrite else "[batch]"))
        route = self._route(overwrite=True) if overwrite else self._forward
        output, fallback, dead = self._protect(
            route, rows, rows if overwrite else None, injector, report, overwrite
        )
        result = output.reshape(moved.shape[:-1] + (width,))
        if not last:
            result = np.moveaxis(result, -1, axis)
        if scatter:
            moved[...] = output.reshape(moved.shape)
        if out is not None:
            if not overwrite:
                np.copyto(out, result)
            result = out
        elif self.dtype != np.complex128:
            result = result.astype(self.dtype)
        return BatchResult(result, report, tuple(fallback), tuple(sorted(set(dead))))

    # ------------------------------------------------------------------
    # the protected kernel
    # ------------------------------------------------------------------
    def _execute_out(
        self, x: np.ndarray, injector: Optional[FaultInjector], out: np.ndarray
    ) -> SchemeResult:
        """``execute(x, out=out)``: one row through the overwrite route."""

        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"input has length {x.size}, expected {self.n}")
        if not self._real:
            out = self._check_out(out, (self.n,))
            if out is not x:
                np.copyto(out, x.astype(np.complex128, copy=False))
            x = out
        else:
            out = self._check_out(out, (self.bins,))
            # Only a directly consumable buffer is overwritten, else a copy.
            if not (x.dtype == np.float64 and x.flags.c_contiguous and x.flags.writeable):
                x = np.array(as_real_array(x))
        result = self._single(self._route(overwrite=True, vector=self._real), x, injector, out)
        result.output = out
        return result

    def _single(
        self,
        route: _Route,
        vector: np.ndarray,
        injector: Optional[FaultInjector],
        dest: Optional[np.ndarray] = None,
    ) -> SchemeResult:
        """One vector through the kernel as a :class:`SchemeResult` (``dest``: ``out=``)."""

        width = self.bins if route is self._backward_one and self._real else self.n
        if vector.shape != (width,):
            raise ValueError(f"input has shape {vector.shape}, expected ({width},)")
        own = dest is not None
        report = FTReport(scheme=self._name + "[inplace]" if own else self._name)
        tile = None if dest is None else dest.reshape(1, -1)
        output = self._kernel(route, vector.reshape(1, width), tile, injector, report, own, 0)[0]
        result = SchemeResult(output[0], report, self._name)
        return result if own else self._cast_result(result)

    def _protect(
        self,
        route: _Route,
        rows: np.ndarray,
        dest: Optional[np.ndarray],
        injector: Optional[FaultInjector],
        report: FTReport,
        own: bool,
    ) -> Tuple[np.ndarray, List[int], List[int]]:
        """Run ``rows`` through the kernel in even tiles of at most ``TILE_ELEMENTS``.

        Each tile of a multi-tile batch then crosses the native-kernel size
        exactly when the whole batch does.  A live injector gets one tile: its
        element indices address the batch.
        """

        count = len(rows)
        per = max(1, TILE_ELEMENTS // self.n)
        if count <= per or (injector is not None and injector.is_live):
            return self._kernel(route, rows, dest, injector, report, own, 0)
        if dest is None:
            dest = np.empty((count, self.bins if self._real else self.n), dtype=np.complex128)
        tiles = -(-count // per)
        bounds = [count * i // tiles for i in range(tiles + 1)]
        parts = [
            self._kernel(route, rows[lo:hi], dest[lo:hi], injector, report, own, lo)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        return dest, [r for p in parts for r in p[1]], [r for p in parts for r in p[2]]

    def _kernel(
        self,
        route: _Route,
        rows: np.ndarray,
        dest: Optional[np.ndarray],
        injector: Optional[FaultInjector],
        report: FTReport,
        own: bool,
        base: int,
    ) -> Tuple[np.ndarray, List[int], List[int]]:
        """Algorithm 1 over one tile of ``rows`` (the module docstring's steps).

        With ``own`` a live injector strikes ``rows`` in place, else a copy;
        ``dest`` receives the output; ``base`` is the tile's first row.  A
        row whose norm is NaN holds a NaN or an infinity: no threshold bounds
        it, so it is reported uncorrectable after one transform.  Returns the
        output and the batch indices of the rows the first check flagged and
        of those left uncorrectable.
        """

        live = injector is not None and injector.is_live
        if live and not own:
            rows = rows.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            sums: Tuple[Any, ...] = ()
            if self._protected:
                refs = route.encode(rows)
                if route.packed:
                    etas = self._policy.packed_thresholds(rows, self.n, route.units)
                else:
                    etas = self._policy.tile_thresholds(rows, route.units)
                if route.pair is not None:
                    w1, w2 = route.pair
                    sums = (refs[0] if w1 is self.constants.c_n else rows @ w1, rows @ w2)
                    if route.carried is not None:
                        sums += (rows @ route.carried[0], rows @ route.carried[1])
            if live:
                injector.visit(FaultSite.INPUT, rows)
            dead: List[int] = []
            if route.overwrites and sums:
                # Last chance: the transform is about to destroy the input.
                index = base + np.arange(len(rows))
                ok = self._repair(rows, index, route.pair, *sums[:2], etas[:, -1], report)
                dead += index[~ok].tolist()
            output, taps = route.transform(rows, dest)
            if dest is not None and not np.may_share_memory(output, dest):
                dest[...] = output
                output = dest
            if live:
                injector.visit(FaultSite.OUTPUT, output)
                if self._protected:
                    taps[0] = route.retap(output)
            if not self._protected:
                return output, [], []
            flagged: List[int] = []
            # Overwritten input and no surrogate to repair from: detect only.
            retries = self._max_retries if sums or not route.overwrites else 0
            checks = len(refs)
            for attempt in range(retries + 1):
                # Check every row; each check counts once in verifications.
                expected = refs if attempt == 0 else refs[:, todo]
                residuals = np.abs(taps - expected)
                limits = (etas if attempt == 0 else etas[todo])[:, :checks].T
                bad = ~(residuals <= limits)  # a NaN residual is a violation
                if not bad.any():
                    report.bump("verifications", bad.size)
                    break
                todo = np.arange(len(rows)) if attempt == 0 else todo
                violations = np.argwhere(bad)
                for c, j in violations:
                    row, site = base + int(todo[j]), route.sites[c]
                    report.record_verification(site, row, residuals[c, j], limits[c, j], True)
                if bad.size > len(violations):
                    report.bump("verifications", bad.size - len(violations))
                failing = bad.any(axis=0)
                todo, interior, taps = todo[failing], bad[-1, failing], taps[:, failing]
                if attempt == 0:
                    # A non-finite row would fail a recompute the same way.
                    flagged, lost = (base + todo).tolist(), np.isnan(etas[todo, 0])
                    for row in base + todo[lost]:
                        report.record_uncorrectable(f"row {row}: non-finite input")
                    dead += (base + todo[lost]).tolist()
                    todo, interior, taps = todo[~lost], interior[~lost], taps[:, ~lost]
                    if not todo.size:
                        break
                if attempt == retries:
                    for row in base + todo:
                        report.record_uncorrectable(f"row {row}: failed {attempt} recoveries")
                    dead += (base + todo).tolist()
                    break
                if route.overwrites:
                    # The input is gone: repair the output from the surrogate.
                    work, S1, S2 = output[todo], sums[2][todo], sums[3][todo]
                    kept = self._repair(work, base + todo, route.carried[2:], S1, S2, None, report)
                    output[todo] = work
                    taps = taps[:, kept]
                    taps[0] = route.retap(work[kept])
                else:
                    # The input survives: repair a located corruption of it,
                    # then recompute through the same transform.
                    work = rows[todo]
                    kept = np.ones(len(todo), dtype=bool)
                    if sums:
                        s1, s2, limit = sums[0][todo], sums[1][todo], etas[todo, -1]
                        kept = self._repair(work, base + todo, route.pair, s1, s2, limit, report)
                    if kept.any():
                        output[todo[kept]], taps = route.transform(work[kept], None)
                    for row, inner in zip(base + todo[kept], interior[kept]):
                        site = route.sites[-1] if inner else route.sites[0]
                        detail = f"row {row} recomputed"
                        report.record_correction("restart", site.removesuffix("-ccv"), None, detail)
                dead += (base + todo[~kept]).tolist()
                todo = todo[kept]
                if not todo.size:
                    break
        return output, flagged, dead

    @staticmethod
    def _repair(
        data: np.ndarray,
        rows: np.ndarray,
        pair: Any,
        s1: np.ndarray,
        s2: np.ndarray,
        limits: Optional[np.ndarray],
        report: FTReport,
    ) -> np.ndarray:
        """Repair one located corrupted element per row of ``data`` in place.

        ``s1``, ``s2`` are the locating ``pair``'s sums from before the
        corruption: the input's own, repaired where its memory check against
        ``limits`` fails (a NaN limit marks non-finite input, left to the
        end-to-end check), or (``limits`` ``None``) an overwritten output's
        carried surrogate.  Returns the mask of rows clean or repaired.
        """

        site = "fused-output" if limits is None else "fused-input"
        suspects: Any = range(len(data))
        if limits is not None:
            residuals = np.abs(data @ pair[0] - s1)
            report.bump("memory-verifications", len(data))
            suspects = np.flatnonzero(residual_exceeds(residuals, limits) & ~np.isnan(limits))
        ok = np.ones(len(data), dtype=bool)
        for j in suspects:
            row = int(rows[j])
            if limits is not None:
                report.record_verification("fused-mcv", row, residuals[j], limits[j], True)
            repaired = repair_single_error(data[j], pair[0], pair[1], s1[j], s2[j])
            if repaired is None:
                report.record_uncorrectable(f"row {row}: {site} corruption could not be located")
                ok[j] = False
            else:
                detail = f"element {repaired[0]} repaired"
                report.record_correction("memory-correct", site, row, detail)
        return ok

    # ------------------------------------------------------------------
    # routes and transform callables
    # ------------------------------------------------------------------
    def _route(
        self, backward: bool = False, overwrite: bool = False, vector: bool = False
    ) -> _Route:
        """One direction's route, built on first use: transform, encode and checks.

        ``vector`` runs a real one-row tile through the real programs' 1-D
        path; ``overwrite`` is the ``out=`` route, with the carried surrogate.
        """

        key = (backward, overwrite, vector)
        if key in self._routes:
            return self._routes[key]
        transform: Any = self._transform_complex
        if self._real:
            transform = partial(
                self._transform_rfft, backward=backward, overwrite=overwrite, vector=vector
            )
        elif backward or overwrite:
            transform = partial(transform, backward=backward, overwrite=overwrite)
        return self._routes.setdefault(key, self._checks(transform, backward, overwrite))

    def _checks(self, transform: Any, backward: bool, overwrite: bool) -> _Route:
        """The route of one direction around ``transform``: its checks, if protected."""

        if not self._protected:
            return _Route(transform, overwrites=overwrite)
        consts = self._inplace_constants() if overwrite else self.constants
        policy, memory = self._policy, self.config.memory_ft
        sites: Tuple[str, ...] = ("fused-ccv",)
        units = [policy.offline_unit(self.n)]
        if self._real and backward:
            # The check is c . x = r . X with the fold on the packed input;
            # x's sigma0 comes from the spectrum's exact energy (Parseval).
            units += [policy.memory_unit(self.bins, consts.p1_h_rms)] if memory else []
            pair = (consts.p1_h, consts.p2_h) if memory else None
            encode = lambda tile: self._fold(tile)[None]  # noqa: E731
            retap = partial(np.dot, b=consts.c_n)
            return _Route(transform, encode, retap, sites, np.array(units), True, pair)
        if self._interior:
            # the packed view z of real samples x has sigma0(z) = sqrt(2) sigma0(x)
            sites += ("real-interior-ccv",)
            units.append(policy.offline_unit(self.n // 2) * 2.0**0.5)
        pair = carried = None
        if memory:
            pair = (consts.w1_n, consts.w2_n)
            units.append(policy.memory_unit(self.n, consts.w1_n_rms))
            if overwrite and self._real:
                carried = (consts.fp1_h, consts.fp2_h, consts.p1_h, consts.p2_h)
            elif overwrite:
                carried = (consts.fw1_n, consts.fw2_n, consts.w1_n, consts.w2_n)
        if self._real:
            encode, retap = self._encode_real, self._fold
        else:
            encode = lambda tile: self._tap.encode(tile)[None]  # noqa: E731
            retap = partial(np.dot, b=consts.r_n)
        return _Route(
            transform, encode, retap, sites, np.array(units), False, pair, carried, overwrite
        )

    def _transform_complex(
        self,
        tile: np.ndarray,
        dest: Optional[np.ndarray],
        backward: bool = False,
        overwrite: bool = False,
    ) -> Tuple[np.ndarray, Any]:
        """Complex rows through the tap around the plan's program or backend.

        The forward is written into ``dest`` when given (no assembly copy).
        ``overwrite`` replaces the rows by their spectra: in place where the
        plan lowered a Stockham program, else by a copy back.
        """

        if overwrite and self._inplace_program is not None:
            self._inplace_program.execute_inplace(tile)
            return tile, (tile @ self.constants.r_n)[None] if self._protected else None
        target = None if overwrite else dest
        taps = None
        if self._tap is not None:
            output, rx = self._tap.execute_tapped(tile, backward, target)
            taps = rx[None]
        elif backward:
            # unprotected: the tapped inverse's finish, with no check
            output, _ = finish_inverse(self._program, self._program.execute(tile))
        else:
            output = self._program.execute(tile, out=target)
        if overwrite:
            tile[...] = output
            output = tile
        return output, taps

    def _transform_rfft(
        self,
        tile: np.ndarray,
        dest: Optional[np.ndarray],
        backward: bool = False,
        overwrite: bool = False,
        vector: bool = False,
    ) -> Tuple[np.ndarray, Any]:
        """Real rows to packed spectra, tapped by the conjugate-even fold.

        The compiled program of an even size also taps its half-length
        sub-transform (``r_h . Z``), which ``overwrite`` runs in place where
        it can.  ``backward`` maps packed spectra to real rows, tapped by
        ``c . x``; ``vector`` runs a one-row tile through the 1-D path (its
        last-bit rounding differs from a batch's); the kernel fills ``dest``.
        """

        if vector:
            output, taps = self._transform_rfft(tile[0], None, backward, overwrite)
            return output[None], None if taps is None else taps.reshape(-1, 1)
        program, protected = self._real_program, self._protected
        if backward:
            if program is None:
                output = self._backend.irfft(tile, n=self.n, axis=-1)
            else:
                output = program.execute_inverse(tile)
            return output, (output @ self.constants.c_n)[None] if protected else None
        if not self._interior:
            if program is None:
                output = self._backend.rfft(tile, axis=-1)
            else:
                output = program.execute_overwrite(tile) if overwrite else program.execute(tile)
            return output, self._fold(output)[None] if protected else None
        z = program.pack(tile)
        if overwrite and program.supports_overwrite:
            spectrum = program.stockham.execute_inplace(z)
        else:
            spectrum = program.transform_half(z)
        output = program.disentangle(spectrum)
        # reprolint: alloc-ok - the two taps, one row each: the fold and r_h . Z
        return output, np.stack((self._fold(output), spectrum @ self.constants.r_h))

    def _encode_real(self, tile: np.ndarray) -> np.ndarray:
        """``c . x`` of C-contiguous real rows, and ``c_h . z`` of their packed view."""

        cx = tile @ self.constants.c_n
        if not self._interior:
            return cx[None]
        return np.stack((cx, tile.view(np.complex128) @ self.constants.c_h))

    def _fold(self, packed: np.ndarray) -> Any:
        """``r . X`` of packed spectra: the conjugate-even fold of ``r``."""

        consts = self.constants
        return halfcomplex_sum(consts.hc_a, consts.hc_b, packed, axis=packed.ndim - 1)

    # ------------------------------------------------------------------
    def _check_out(self, out: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
        if self.dtype != np.complex128:
            raise ValueError("out= runs in the buffer itself: it requires dtype='complex128'")
        ok = isinstance(out, np.ndarray) and out.shape == shape and out.dtype == np.complex128
        if not (ok and out.flags.c_contiguous and out.flags.writeable):
            raise ValueError(f"out must be a writeable C-contiguous complex128 {shape} array")
        return out

    def _inplace_constants(self) -> SchemeConstants:
        """The constants with the carried surrogate, built on first use if need be."""

        consts = self.constants
        if self.config.memory_ft and not consts.inplace:
            consts = self.constants = consts.with_inplace()
        return consts

    def _cast_result(self, result: SchemeResult) -> SchemeResult:
        if self.dtype != np.complex128:
            output = result.output  # a real inverse's output stays real, in float32
            result.output = output.astype(np.float32 if np.isrealobj(output) else self.dtype)
        return result

    # ------------------------------------------------------------------
    def profile(self, x: np.ndarray) -> "ProfileResult":
        """Timed per-phase breakdown of one fault-free execution (diagnostic).

        The kernel's lowered program stage by stage (one entry when the
        call runs the native kernels), then the rest of one protected
        :meth:`execute` - encode, thresholds, taps, checks - as one entry;
        without a lowered program in the kernel, the whole call is one
        entry.  Profiling runs outside the hot-path contract.
        """

        import time

        from repro.telemetry.profile import ProfileEntry, ProfileResult

        program = self._real_program if self._real else self._program
        entries: List[ProfileEntry] = []
        inner, label = 0.0, "execute"
        if self._protected and hasattr(program, "profile"):
            data = np.asarray(x, dtype=np.float64 if self._real else np.complex128)
            profiled = program.profile(data)
            entries.extend(profiled.entries)
            inner, label = profiled.total_seconds, "protection (encode, thresholds, taps, checks)"
        start = time.perf_counter()
        result = self.execute(x)
        total = time.perf_counter() - start
        # Clamped at zero, the total on the same floor: sum(entries) == total.
        entries.append(ProfileEntry(label, max(total - inner, 0.0)))
        total = max(total, inner)
        return ProfileResult(self.n, self.describe(), tuple(entries), total, result.output)

    def describe(self) -> str:
        from repro.fftlib.plan import _native_program_state

        real = f", real -> {self.bins} bins" if self._real else ""
        inplace = ""
        if self._inplace:
            # an unsupported in-place lowering is called out, never dropped
            inplace = ", inplace-fallback(no Stockham lowering for this size)"
            if self._inplace_program is not None or self._real:
                inplace = ", inplace"
        native = ""
        if self.backend == "fftlib":
            program = self._real_program or self._inplace_program or self._program
            active, reason = _native_program_state(program)
            native = ", native" if active else f", native-fallback({reason or 'not lowered'})"
        return (
            f"FTPlan(n={self.n} = {self.m} x {self.k}{real}{inplace}{native}, "
            f"scheme={self.scheme.name}, backend={self.backend}, dtype={self.dtype.name})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


# ----------------------------------------------------------------------
# the plan cache ("wisdom")
# ----------------------------------------------------------------------

class PlanCacheInfo(NamedTuple):
    hits: int
    misses: int
    size: int
    limit: int


_DEFAULT_CACHE_LIMIT = 32
_cache_lock = threading.RLock()
_cache: "OrderedDict[Tuple[int, FTConfig], FTPlan]" = OrderedDict()
_cache_limit = _DEFAULT_CACHE_LIMIT
_hits = 0
_misses = 0
#: resolved configs in front of the LRU, by ``(config argument, default
#: backend)`` and by themselves; cleared when it reaches ``_MEMO_LIMIT``
_resolved: Dict[Any, FTConfig] = {}
_MEMO_LIMIT = 256


def plan(n: int, config: Union[FTConfig, str, None] = None, **overrides: Any) -> FTPlan:
    """A cached :class:`FTPlan` for an ``n``-point protected transform.

    Parameters
    ----------
    n:
        Transform length.
    config:
        An :class:`FTConfig`, a legacy registry name (``"opt-online+mem"``),
        or ``None`` for the default configuration.
    **overrides:
        Individual :class:`FTConfig` fields to override, e.g.
        ``plan(4096, backend="numpy")`` or
        ``plan(4096, "offline", memory_ft=True)``.

    Repeated calls with an equal ``(n, config)`` return the *same* plan
    object from a thread-safe, size-bounded LRU cache, so planning cost
    (checksum weight vectors, twiddle tables, sub-plans) is paid once per
    configuration - FFTW wisdom for the protected transform.
    """

    memo: Any = None
    resolved: Optional[FTConfig] = None
    if not overrides and (config is None or isinstance(config, (str, FTConfig))):
        # A hit resolves the argument from the memo: no FTConfig is built.
        memo = (config, default_backend_name())
        resolved = _resolved.get(memo)
    if resolved is None:
        if config is None:
            resolved = FTConfig(**overrides)
        elif isinstance(config, str):
            resolved = FTConfig.from_name(config, **overrides)
        elif isinstance(config, FTConfig):
            resolved = config.replace(**overrides) if overrides else config
        else:
            raise TypeError(f"config must be FTConfig, str, or None, got {type(config).__name__}")
        # Resolve backend=None to the *current* process default before
        # keying: otherwise a later set_default_backend() would keep
        # returning plans built under the old default, and backend=None /
        # backend="fftlib" would cache duplicate plans for the same kernel.
        backend = resolve_backend_name(resolved.backend)
        if resolved.backend != backend:
            resolved = resolved.replace(backend=backend)
        with _cache_lock:
            if len(_resolved) >= _MEMO_LIMIT:
                _resolved.clear()
            # one object per equal config: cache keys then match by identity
            resolved = _resolved.setdefault(resolved, resolved)
            if memo is not None:
                _resolved[memo] = resolved
    key = (int(n), resolved)
    global _hits, _misses
    with _cache_lock:
        cached = _cache.get(key)
        if cached is not None:
            _hits += 1
            _cache.move_to_end(key)
            return cached
    # Build outside the lock: planning is the expensive part (checksum
    # weight vectors, twiddle warm-up) and must not serialize unrelated
    # threads.  On a race the first inserted plan wins and the duplicate
    # construction is discarded.
    created = FTPlan(n, resolved)
    with _cache_lock:
        existing = _cache.get(key)
        if existing is not None:
            _hits += 1
            _cache.move_to_end(key)
            return existing
        _misses += 1
        _cache[key] = created
        while len(_cache) > _cache_limit:
            _cache.popitem(last=False)
    if _trace.active:
        _trace.emit(
            "plan-compile",
            n=int(n),
            scheme=created.scheme.name,
            backend=resolved.backend,
            real=resolved.real,
            inplace=resolved.inplace,
        )
    return created


def plan_cache_info() -> PlanCacheInfo:
    """Hit/miss/size statistics of the plan cache."""

    with _cache_lock:
        return PlanCacheInfo(hits=_hits, misses=_misses, size=len(_cache), limit=_cache_limit)


def clear_plan_cache() -> None:
    """Drop all cached plans and reset the statistics."""

    global _hits, _misses
    with _cache_lock:
        _cache.clear()
        _hits = 0
        _misses = 0


def set_plan_cache_limit(limit: int) -> None:
    """Bound the cache to ``limit`` plans (evicting least-recently-used)."""

    global _cache_limit
    limit = ensure_positive_int(limit, name="limit")
    with _cache_lock:
        _cache_limit = limit
        while len(_cache) > _cache_limit:
            _cache.popitem(last=False)
