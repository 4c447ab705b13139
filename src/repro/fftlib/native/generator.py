"""C source generator for the native codelet kernel tier.

This is the repository's ``genfft``-lite: :func:`generate_source` emits one
self-contained C translation unit implementing the exact stage bodies the
compiled :class:`~repro.fftlib.executor.StageProgram` executes -

* **base codelets** ``base_r`` for ``r`` in :data:`CODELET_RADICES` - the
  bottom-level length-``r`` DFTs of all stride-``q`` input subsequences,
  fully unrolled straight-line butterflies produced by a recursive
  radix-2 decimation-in-time expansion with the internal twiddle constants
  folded at generation time (trivial factors ``1`` and ``-i`` cost no
  multiplies, exactly the split-radix savings the ROADMAP's r in {32, 64}
  follow-on asked for);
* **combine codelets** ``combine_16_tw`` / ``combine_16_plain`` - one fused
  pass per stage: load the 16 strided inputs, multiply by the precomputed
  ``(16, p)`` twiddle table, run the unrolled radix-16 butterfly, scatter
  the ``t``-major outputs - where the pure-NumPy path pays one full twiddle
  pass plus one BLAS contraction per stage.  Radix 16 is the only combine
  radix :func:`~repro.fftlib.executor.lower` gives a native program, so it
  is the only one generated.  The ``u`` loop is line-blocked: it handles
  :data:`LANES` adjacent points, one 64-byte cache line per stream, per
  iteration (the 16 streams of a late stage lie ``n / 16`` elements apart,
  so a line fetched for one point would otherwise be evicted before its
  neighbours use it).  Each lane runs the same butterfly in the same
  operation order as the single-point remainder loop that finishes spans
  that are not a multiple of :data:`LANES` (bases 5, 6 and 7), so the
  blocking never changes a result bit;
* a **generic base** ``base_generic`` driven by the cached DFT matrix, for
  the small base orders without an unrolled codelet (3, 5, 6, 7 - bounded
  by :data:`GENERIC_BASE_MAX`).  Every program whose base is that small
  combines with radix 16 only, so there is no generic combine:
  :mod:`~repro.fftlib.native.kernels` keeps any other shape on the NumPy
  stage bodies;
* two **drivers**, ``repro_execute`` (out-of-place, ping-pong work buffers)
  and ``repro_execute_into`` (the two-buffer allocation-free discipline of
  :meth:`StageProgram.execute_into`), each a single C call per transform so
  ``ctypes`` releases the GIL exactly once per execution;
* the **inverse finish** ``repro_inverse_finish``: one in-place pass over a
  forward program's output ``F(X)`` that sums it by residue class mod ``p``
  (the end-to-end check's ``r . F(X)`` with ``r_j = omega_p^(j mod p)``)
  and rewrites it as ``ifft(X)[j] = F(X)[(n - j) mod n] / n``.

Everything is ``complex128`` stored interleaved (the NumPy memory layout),
all pointers are ``restrict``, and nothing allocates - buffers, twiddle
tables, and base DFT matrices are owned by the Python side and passed in.

The emitted text is deterministic: the kernel cache keys compiled shared
objects by a hash of this source plus the compiler identity, so bumping
:data:`GENERATOR_VERSION` (or changing any emitted line) automatically
invalidates stale cache entries.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

__all__ = [
    "GENERATOR_VERSION",
    "NATIVE_ABI",
    "CODELET_RADICES",
    "COMBINE_RADIX",
    "LANES",
    "GENERIC_BASE_MAX",
    "generate_source",
]

#: Bump on any change to the emitted C (new kernels, changed signatures,
#: changed loop structure) - it is folded into the kernel-cache key.
GENERATOR_VERSION = "3"

#: ABI stamp compiled into the shared object and verified at load time, so a
#: cache entry produced by an incompatible generator can never be dispatched.
NATIVE_ABI = 3

#: Base orders with fully unrolled straight-line butterflies.
CODELET_RADICES = (2, 4, 8, 16, 32, 64)

#: The one combine radix with a generated codelet: every program whose base
#: the kernels run combines with radix 16 only (see ``executor.lower``).
COMBINE_RADIX = 16

#: complex128 points per 64-byte cache line: the combine codelet's ``u``
#: loop handles this many adjacent points of every stream per iteration.
LANES = 4

#: Largest base order lowered to the matrix-driven ``base_generic`` kernel.
#: Past it the kernel's per-point O(base) loop loses to the NumPy batched
#: matrix product: on a 2-vCPU x86 host (numpy 2.4, OpenBLAS) bases 5-7 ran
#: 1.3-1.6x native, 10-12 at 0.95-1.1x and 21-60 at 0.3-0.8x.
GENERIC_BASE_MAX = 8


def _const(value: float) -> str:
    """A C double literal with full round-trip precision."""

    if value == int(value):
        return f"{value:+.1f}"
    return f"{value:+.17e}"


class _Emitter:
    """Accumulates straight-line statements with unique temp names."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._counter = 0

    def tmp(self) -> str:
        self._counter += 1
        return f"t{self._counter}"

    def stmt(self, line: str) -> None:
        self.lines.append(line)


def _dft(em: _Emitter, xs: Sequence[Tuple[str, str]]) -> List[Tuple[str, str]]:
    """Emit a length-``len(xs)`` DFT over complex (re, im) expression pairs.

    Recursive radix-2 decimation in time; the inter-level twiddle constants
    are folded at generation time, with the trivial factors (``1`` at
    ``t = 0`` and ``-i`` at ``t = r/4``) emitted as moves/swaps instead of
    multiplies.  Returns the output expression pairs in natural order.
    """

    r = len(xs)
    if r == 1:
        return list(xs)
    evens = _dft(em, xs[0::2])
    odds = _dft(em, xs[1::2])
    h = r // 2
    out: List[Tuple[str, str]] = [("", "")] * r
    for t in range(h):
        er, ei = evens[t]
        orr, oi = odds[t]
        if t == 0:
            mr, mi = orr, oi
        elif 4 * t == r:
            # w = -i: (-i) * (a + bi) = b - ai; a swap plus a negation.
            m = em.tmp()
            em.stmt(f"const double {m}r = {oi};")
            em.stmt(f"const double {m}i = -{orr};")
            mr, mi = f"{m}r", f"{m}i"
        else:
            wr = math.cos(-2.0 * math.pi * t / r)
            wi = math.sin(-2.0 * math.pi * t / r)
            m = em.tmp()
            em.stmt(
                f"const double {m}r = {_const(wr)} * {orr} - ({_const(wi)}) * {oi};"
            )
            em.stmt(
                f"const double {m}i = {_const(wr)} * {oi} + ({_const(wi)}) * {orr};"
            )
            mr, mi = f"{m}r", f"{m}i"
        a = em.tmp()
        b = em.tmp()
        em.stmt(f"const double {a}r = {er} + {mr};")
        em.stmt(f"const double {a}i = {ei} + {mi};")
        em.stmt(f"const double {b}r = {er} - {mr};")
        em.stmt(f"const double {b}i = {ei} - {mi};")
        out[t] = (f"{a}r", f"{a}i")
        out[t + h] = (f"{b}r", f"{b}i")
    return out


def _indent(lines: Sequence[str], depth: int) -> str:
    pad = "    " * depth
    return "\n".join(pad + line for line in lines)


def _base_codelet(r: int) -> str:
    """The gathered base kernel: length-``r`` DFTs of stride-``q`` subsequences."""

    em = _Emitter()
    for s in range(r):
        em.stmt(f"const double z{s}r = inb[2 * ({s} * q + j)];")
        em.stmt(f"const double z{s}i = inb[2 * ({s} * q + j) + 1];")
    outs = _dft(em, [(f"z{s}r", f"z{s}i") for s in range(r)])
    for t, (yr, yi) in enumerate(outs):
        em.stmt(f"outb[2 * (j * {r} + {t})] = {yr};")
        em.stmt(f"outb[2 * (j * {r} + {t}) + 1] = {yi};")
    return f"""
static void base_{r}(const int64_t batch, const int64_t q,
                     const double* restrict in, const int64_t in_rs,
                     double* restrict out, const int64_t out_rs)
{{
    for (int64_t b = 0; b < batch; ++b) {{
        const double* restrict inb = in + 2 * b * in_rs;
        double* restrict outb = out + 2 * b * out_rs;
        for (int64_t j = 0; j < q; ++j) {{
{_indent(em.lines, 3)}
        }}
    }}
}}
"""


def _combine_body(r: int, twiddled: bool, lanes: int) -> List[str]:
    """Straight-line radix-``r`` combine of ``lanes`` adjacent points ``u + l``.

    Loads every stream's ``lanes`` points together (one cache line for four
    complex128 values), runs the :func:`_dft` butterfly once per lane and
    stores each output row's ``lanes`` points together.  Every lane performs
    the single-point body's operations in the same order.
    """

    em = _Emitter()

    def name(base: str, s: int, lane: int) -> str:
        return f"{base}{s}_{lane}" if lanes > 1 else f"{base}{s}"

    def at(lane: int) -> str:
        return f"u + {lane}" if lane else "u"

    inputs: List[List[Tuple[str, str]]] = [[] for _ in range(lanes)]
    for s in range(r):
        for lane in range(lanes):
            x = name("x", s, lane)
            em.stmt(f"const double {x}r = inc[2 * ({s} * sstr + {at(lane)})];")
            em.stmt(f"const double {x}i = inc[2 * ({s} * sstr + {at(lane)}) + 1];")
            if twiddled and s > 0:
                # Row 0 of every stage table is all ones (omega^0); skip it.
                w, z = name("w", s, lane), name("z", s, lane)
                em.stmt(f"const double {w}r = tw[2 * ({s} * p + {at(lane)})];")
                em.stmt(f"const double {w}i = tw[2 * ({s} * p + {at(lane)}) + 1];")
                em.stmt(f"const double {z}r = {x}r * {w}r - {x}i * {w}i;")
                em.stmt(f"const double {z}i = {x}r * {w}i + {x}i * {w}r;")
                inputs[lane].append((f"{z}r", f"{z}i"))
            else:
                inputs[lane].append((f"{x}r", f"{x}i"))
    outs = [_dft(em, inputs[lane]) for lane in range(lanes)]
    for t in range(r):
        for lane in range(lanes):
            yr, yi = outs[lane][t]
            em.stmt(f"outc[2 * ({t} * p + {at(lane)})] = {yr};")
            em.stmt(f"outc[2 * ({t} * p + {at(lane)}) + 1] = {yi};")
    return em.lines


def _combine_codelet(r: int, twiddled: bool) -> str:
    """One fused combine stage of radix ``r`` (twiddle + butterfly + scatter)."""

    suffix = "tw" if twiddled else "plain"
    tw_param = (
        "\n                           const double* restrict tw,"
        if twiddled
        else ""
    )
    return f"""
static void combine_{r}_{suffix}(const int64_t batch, const int64_t count, const int64_t p,
                           const double* restrict in, const int64_t in_rs,{tw_param}
                           double* restrict out, const int64_t out_rs)
{{
    const int64_t sstr = count * p;
    const int64_t blocked = p - p % {LANES};
    for (int64_t b = 0; b < batch; ++b) {{
        const double* restrict inb = in + 2 * b * in_rs;
        double* restrict outb = out + 2 * b * out_rs;
        for (int64_t c = 0; c < count; ++c) {{
            const double* restrict inc = inb + 2 * c * p;
            double* restrict outc = outb + 2 * c * ({r} * p);
            int64_t u = 0;
            for (; u < blocked; u += {LANES}) {{
{_indent(_combine_body(r, twiddled, LANES), 4)}
            }}
            for (; u < p; ++u) {{
{_indent(_combine_body(r, twiddled, 1), 4)}
            }}
        }}
    }}
}}
"""


_PRELUDE = f"""/* Generated by repro.fftlib.native.generator (version {GENERATOR_VERSION}).
 * Native codelet/combine kernels for the compiled stage programs: complex128
 * interleaved layout, no allocations, one driver call per transform.
 * Do not edit - regenerate via generate_source().
 */
#include <stdint.h>

#define REPRO_NATIVE_ABI {NATIVE_ABI}
#define GENERIC_BASE_MAX {GENERIC_BASE_MAX}
#define COMBINE_RADIX {COMBINE_RADIX}

int64_t repro_native_abi(void) {{ return REPRO_NATIVE_ABI; }}
"""

_GENERIC = """
/* Matrix-driven base kernel for the small orders without an unrolled
 * codelet (order <= GENERIC_BASE_MAX). */
static void base_generic(const int64_t batch, const int64_t q, const int64_t base,
                         const double* restrict in, const int64_t in_rs,
                         const double* restrict mat,
                         double* restrict out, const int64_t out_rs)
{
    for (int64_t b = 0; b < batch; ++b) {
        const double* restrict inb = in + 2 * b * in_rs;
        double* restrict outb = out + 2 * b * out_rs;
        for (int64_t j = 0; j < q; ++j) {
            double zr[GENERIC_BASE_MAX];
            double zi[GENERIC_BASE_MAX];
            for (int64_t s = 0; s < base; ++s) {
                zr[s] = inb[2 * (s * q + j)];
                zi[s] = inb[2 * (s * q + j) + 1];
            }
            for (int64_t t = 0; t < base; ++t) {
                double accr = 0.0;
                double acci = 0.0;
                for (int64_t s = 0; s < base; ++s) {
                    const double mr = mat[2 * (s * base + t)];
                    const double mi = mat[2 * (s * base + t) + 1];
                    accr += zr[s] * mr - zi[s] * mi;
                    acci += zr[s] * mi + zi[s] * mr;
                }
                outb[2 * (j * base + t)] = accr;
                outb[2 * (j * base + t) + 1] = acci;
            }
        }
    }
}

/* Elementwise twiddle staging pass (the two-buffer driver's odd-stage
 * discipline): out[b, s, c, u] = tw[s, u] * in[b, s, c, u]. */
static void twiddle_mult(const int64_t batch, const int64_t r,
                         const int64_t count, const int64_t p,
                         const double* restrict in, const int64_t in_rs,
                         const double* restrict tw,
                         double* restrict out, const int64_t out_rs)
{
    for (int64_t b = 0; b < batch; ++b) {
        const double* restrict inb = in + 2 * b * in_rs;
        double* restrict outb = out + 2 * b * out_rs;
        for (int64_t s = 0; s < r; ++s) {
            const double* restrict tws = tw + 2 * s * p;
            for (int64_t c = 0; c < count; ++c) {
                const double* restrict inc = inb + 2 * ((s * count + c) * p);
                double* restrict outc = outb + 2 * ((s * count + c) * p);
                for (int64_t u = 0; u < p; ++u) {
                    const double xr = inc[2 * u];
                    const double xi = inc[2 * u + 1];
                    const double wr = tws[2 * u];
                    const double wi = tws[2 * u + 1];
                    outc[2 * u] = xr * wr - xi * wi;
                    outc[2 * u + 1] = xr * wi + xi * wr;
                }
            }
        }
    }
}
"""


def _dispatchers() -> str:
    base_cases = "\n".join(
        f"    case {r}: base_{r}(batch, q, in, in_rs, out, out_rs); return;"
        for r in CODELET_RADICES
    )
    return f"""
static void run_base(const int64_t batch, const int64_t q, const int64_t base,
                     const double* restrict mat,
                     const double* restrict in, const int64_t in_rs,
                     double* restrict out, const int64_t out_rs)
{{
    if (!mat) switch (base) {{
{base_cases}
    default: break;
    }}
    base_generic(batch, q, base, in, in_rs, mat, out, out_rs);
}}

/* Only radix {COMBINE_RADIX} reaches here: kernels._program_obstacle keeps
 * every program with another combine radix on the NumPy stage bodies. */
static void run_combine(const int64_t span, const int64_t count,
                        const int64_t batch,
                        const double* restrict in, const int64_t in_rs,
                        const double* restrict tw,
                        double* restrict out, const int64_t out_rs)
{{
    if (tw)
        combine_{COMBINE_RADIX}_tw(batch, count, span, in, in_rs, tw, out, out_rs);
    else
        combine_{COMBINE_RADIX}_plain(batch, count, span, in, in_rs, out, out_rs);
}}
"""


_DRIVERS = """
/* Out-of-place driver: mirrors StageProgram.execute.  `in` is never written;
 * work_a/work_b are full-size ping-pong scratch; the final combine lands in
 * `out`.  All row strides are in complex elements. */
void repro_execute(const int64_t batch, const int64_t n, const int64_t base,
                   const double* base_matrix, const int64_t nstages,
                   const int64_t* restrict spans, const int64_t* restrict counts,
                   const double* const* twiddles,
                   const double* in, const int64_t in_rs,
                   double* out, const int64_t out_rs,
                   double* work_a, double* work_b)
{
    const int64_t q0 = n / base;
    if (nstages == 0) {
        run_base(batch, q0, base, base_matrix, in, in_rs, out, out_rs);
        return;
    }
    double* bufs[2] = { work_a, work_b };
    run_base(batch, q0, base, base_matrix, in, in_rs, work_a, n);
    const double* cur = work_a;
    int64_t cur_rs = n;
    for (int64_t i = 0; i < nstages; ++i) {
        double* dst;
        int64_t dst_rs;
        if (i == nstages - 1) { dst = out; dst_rs = out_rs; }
        else { dst = bufs[(i + 1) & 1]; dst_rs = n; }
        run_combine(spans[i], counts[i], batch,
                    cur, cur_rs, twiddles[i], dst, dst_rs);
        cur = dst;
        cur_rs = dst_rs;
    }
}

/* Two-buffer driver: mirrors StageProgram.execute_into.  `data` holds the
 * input and is clobbered (it becomes the staging area), the result lands in
 * `work`.  With an odd stage count the first stage runs un-fused (twiddle
 * staging into `data`, plain butterfly back into `work`) so the fused
 * alternation of the remaining even count still finishes in `work`. */
void repro_execute_into(const int64_t batch, const int64_t n, const int64_t base,
                        const double* base_matrix, const int64_t nstages,
                        const int64_t* restrict spans, const int64_t* restrict counts,
                        const double* const* twiddles,
                        double* data, const int64_t data_rs,
                        double* work, const int64_t work_rs)
{
    const int64_t q0 = n / base;
    run_base(batch, q0, base, base_matrix, data, data_rs, work, work_rs);
    int64_t i = 0;
    if (nstages & 1) {
        twiddle_mult(batch, COMBINE_RADIX, counts[0], spans[0],
                     work, work_rs, twiddles[0], data, data_rs);
        run_combine(spans[0], counts[0], batch,
                    data, data_rs, (const double*)0, work, work_rs);
        i = 1;
    }
    const double* cur = work;
    int64_t cur_rs = work_rs;
    for (; i < nstages; ++i) {
        double* dst = (cur == work) ? data : work;
        const int64_t dst_rs = (cur == work) ? data_rs : work_rs;
        run_combine(spans[i], counts[i], batch,
                    cur, cur_rs, twiddles[i], dst, dst_rs);
        cur = dst;
        cur_rs = dst_rs;
    }
}

/* Inverse finish of one row: `y` holds F(X), a forward program's output on
 * the spectrum X.  One in-place pass sums y by residue class mod p into
 * `sums` (p complex values: sums[k] = sum of y[j] over j = k mod p, so the
 * caller forms the check r . F(X) = sum_k omega_p^k sums[k]) and rewrites
 * y as ifft(X)[j] = F(X)[(n - j) mod n] * scale, with scale = 1/n.  Element
 * 0 stays in place; the others swap pairwise, j with n - j. */
void repro_inverse_finish(const int64_t n, const int64_t p, const double scale,
                          double* restrict y, double* restrict sums)
{
    for (int64_t k = 0; k < 2 * p; ++k) sums[k] = 0.0;
    sums[0] = y[0];
    sums[1] = y[1];
    y[0] *= scale;
    y[1] *= scale;
    int64_t lo = 1, hi = n - 1;
    int64_t klo = 1 % p, khi = (n - 1) % p;
    for (; lo < hi; ++lo, --hi) {
        const double ar = y[2 * lo], ai = y[2 * lo + 1];
        const double br = y[2 * hi], bi = y[2 * hi + 1];
        sums[2 * klo] += ar;
        sums[2 * klo + 1] += ai;
        sums[2 * khi] += br;
        sums[2 * khi + 1] += bi;
        y[2 * lo] = br * scale;
        y[2 * lo + 1] = bi * scale;
        y[2 * hi] = ar * scale;
        y[2 * hi + 1] = ai * scale;
        if (++klo == p) klo = 0;
        if (khi-- == 0) khi = p - 1;
    }
    if (lo == hi) {
        sums[2 * klo] += y[2 * lo];
        sums[2 * klo + 1] += y[2 * lo + 1];
        y[2 * lo] *= scale;
        y[2 * lo + 1] *= scale;
    }
}
"""


def generate_source() -> str:
    """The complete C translation unit of the native kernel tier."""

    parts = [_PRELUDE]
    for r in CODELET_RADICES:
        parts.append(_base_codelet(r))
    parts.append(_combine_codelet(COMBINE_RADIX, twiddled=True))
    parts.append(_combine_codelet(COMBINE_RADIX, twiddled=False))
    parts.append(_GENERIC)
    parts.append(_dispatchers())
    parts.append(_DRIVERS)
    return "\n".join(parts)
