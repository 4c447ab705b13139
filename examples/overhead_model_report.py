#!/usr/bin/env python
"""Section 7 overhead model vs. measured overheads.

Prints two views of the fault-tolerance cost:

1. the paper's closed-form operation-count model evaluated at the paper's
   own problem sizes (2^25 - 2^28), which reproduces the magnitudes of
   Fig. 7, and
2. measured wall-clock overheads of this repository's Python implementation
   at a laptop-scale size, which reproduces the *ordering* of the schemes.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.perfmodel import (
    communication_overhead_ratio,
    parallel_scheme_ops,
    parallel_space_overhead_ratio,
    predict_sequential,
    sequential_space_overhead,
)
from repro.utils.reporting import Table

MEASURE_N = 2**16
MEASURE_REPEATS = 3
MEASURED_SCHEMES = ["fftw", "offline", "opt-offline", "online", "opt-online",
                    "offline+mem", "opt-offline+mem", "online+mem", "opt-online+mem"]


def model_report() -> None:
    table = Table("Section 7 model: predicted fault-free overhead (% of 5 N log2 N)",
                  ["N", "opt-offline", "opt-offline+mem", "opt-online", "opt-online+mem"])
    for exponent in (25, 26, 27, 28):
        n = 2**exponent
        preds = {p.scheme: p.overhead_percent for p in predict_sequential(n)}
        table.add_row(f"2^{exponent}", preds["opt-offline"], preds["opt-offline+mem"],
                      preds["opt-online"], preds["opt-online+mem"])
    table.add_note("paper Fig. 7 reports ~27%/35% (offline) and ~20%/36% (online) at these sizes")
    print(table.render())

    print()
    local = 2**23
    print("parallel per-rank model (local size 2^23):")
    print(f"  FT-FFTW overhead ops      : {parallel_scheme_ops(local).fault_free / local:.0f} n")
    print(f"  opt-FT-FFTW overhead ops  : {parallel_scheme_ops(local, overlap=True).fault_free / local:.0f} n")
    print(f"  space overhead (p=256)    : {100 * parallel_space_overhead_ratio(256):.2f} %")
    print(f"  comm overhead (p=256)     : {100 * communication_overhead_ratio(local, 256):.4f} %")
    print(f"  sequential extra space    : {sequential_space_overhead(2**26)} complex elements for N=2^26")


def measured_report() -> None:
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, MEASURE_N) + 1j * rng.uniform(-1, 1, MEASURE_N)
    # the paper-exact schemes and PlainFFT on the same two-layer substrate
    # (a plan's own execute runs the protected kernel or the bare program)
    schemes = {name: repro.plan(MEASURE_N, name).scheme for name in MEASURED_SCHEMES}
    for scheme in schemes.values():          # warm up plans and caches
        scheme.execute(x)

    times = {name: [] for name in MEASURED_SCHEMES}
    for _ in range(MEASURE_REPEATS):
        for name, scheme in schemes.items():  # interleave to decorrelate noise
            start = time.perf_counter()
            scheme.execute(x)
            times[name].append(time.perf_counter() - start)

    baseline = min(times["fftw"])
    table = Table(f"Measured overhead of this implementation (N=2^16, best of {MEASURE_REPEATS})",
                  ["scheme", "seconds", "overhead %"])
    for name in MEASURED_SCHEMES:
        best = min(times[name])
        table.add_row(name, best, 100.0 * (best - baseline) / baseline)
    table.add_note("orderings are meaningful; absolute percentages depend on the NumPy backend")
    print(table.render())


def main() -> None:
    model_report()
    print()
    measured_report()


if __name__ == "__main__":
    main()
