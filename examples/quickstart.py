#!/usr/bin/env python
"""Quickstart: protected FFT plans, fault injection, batching, and recovery.

Run with::

    python examples/quickstart.py

The script walks through the public plan API:

1. create a cached protected plan (``repro.plan``; the FFTW-style
   plan-once/execute-many entry point),
2. run it fault-free and check the result against ``numpy.fft``,
3. inject a computational soft error into one sub-FFT and watch the online
   scheme detect and repair it mid-transform,
4. inject a memory bit flip and watch the locating checksums repair the
   exact element,
5. run a whole batch of signals through the vectorized ``execute_many``
   path (and on a different FFT backend),
6. compare the scheme configurations on the same input.
"""

from __future__ import annotations

import numpy as np

import repro
from repro import FaultInjector, FaultSite
from repro.core.config import legacy_scheme_names


def relative_error(reference: np.ndarray, candidate: np.ndarray) -> float:
    return float(np.max(np.abs(candidate - reference)) / np.max(np.abs(reference)))


def main() -> None:
    n = 2**14
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    reference = np.fft.fft(x)

    # ------------------------------------------------------------------ 1-2
    p = repro.plan(n)  # default: the paper's opt-online scheme + memory FT
    assert repro.plan(n) is p  # plans are cached ("wisdom")
    result = p.execute(x)
    print("fault-free run")
    print(f"  plan             : {p.describe()}")
    print(f"  scheme           : {result.scheme}")
    print(f"  relative error   : {relative_error(reference, result.output):.2e}")
    print(f"  errors detected  : {result.report.detected}")

    # ------------------------------------------------------------------ 3
    injector = FaultInjector().arm_computational(
        FaultSite.STAGE1_COMPUTE, index=17, magnitude=42.0
    )
    result = p.execute(x, injector)
    print("\ncomputational soft error in sub-FFT 17")
    print(f"  faults injected  : {injector.fired_count}")
    print(f"  detected         : {result.report.detected}")
    print(f"  sub-FFTs redone  : {result.report.recompute_count}")
    print(f"  relative error   : {relative_error(reference, result.output):.2e}")

    # ------------------------------------------------------------------ 4
    injector = FaultInjector().arm_bitflip(FaultSite.INTERMEDIATE, bit=58)
    result = p.execute(x, injector)
    print("\nmemory bit flip in the intermediate array")
    print(f"  memory repairs   : {result.report.memory_correction_count}")
    print(f"  relative error   : {relative_error(reference, result.output):.2e}")

    # ------------------------------------------------------------------ 5
    batch = rng.uniform(-1.0, 1.0, (32, n)) + 1j * rng.uniform(-1.0, 1.0, (32, n))
    batch_result = p.execute_many(batch)
    print(f"\nbatched execution ({batch.shape[0]} signals, vectorized protection)")
    print(f"  rows verified    : {batch.shape[0]}")
    print(f"  rows re-protected: {len(batch_result.fallback_rows)}")
    print(f"  relative error   : {relative_error(np.fft.fft(batch, axis=-1), batch_result.output):.2e}")

    fast = repro.plan(n, backend="numpy")  # same protection, pocketfft kernel
    batch_result = fast.execute_many(batch)
    print(f"  numpy backend    : {relative_error(np.fft.fft(batch, axis=-1), batch_result.output):.2e}"
          " (same checksums, compiled sub-FFTs)")

    # ------------------------------------------------------------------ 6
    print("\nscheme comparison on the same faulty run "
          "(computational fault in the first part):")
    print(f"  {'scheme':<18s} {'detected':<9s} {'corrected':<10s} {'rel. error':<12s}")
    for name in legacy_scheme_names():
        injector = FaultInjector().arm_computational(FaultSite.STAGE1_COMPUTE, magnitude=5.0)
        res = repro.plan(n, name).execute(x, injector)
        print(
            f"  {name:<18s} {str(res.report.detected):<9s} "
            f"{str(res.report.corrected):<10s} {relative_error(reference, res.output):<12.2e}"
        )

    print("\nNote: the unprotected 'fftw' baseline silently returns a corrupted "
          "spectrum; every ABFT scheme detects the error, and the online schemes "
          "repair it by recomputing a single sqrt(N)-point sub-FFT.")


if __name__ == "__main__":
    main()
