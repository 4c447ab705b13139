"""Section 7 companion: model validation and optimization ablations.

Not a table/figure of its own in the paper, but DESIGN.md calls out the
individual Section 4 optimizations as ablation targets:

* how much each optimization (modified checksums, verification postponing,
  incremental generation, contiguous buffering) contributes to the measured
  cost of the optimized online scheme, and
* how the Section 7 operation counts compare with the measured overhead of
  this implementation at the benchmark sizes.

Both tables time paper-exact schemes against ``PlainFFT`` (``oracle_for``)
on the same two-layer substrate.
"""

from __future__ import annotations

import pytest

from _harness import (
    bench_backend,
    interleaved_overhead,
    make_input,
    oracle_for,
    save_table,
    seq_sizes,
)
from repro.core import OptimizationFlags
from repro.core.optimized import OptimizedOnlineABFT
from repro.perfmodel import offline_scheme_ops, online_scheme_ops
from repro.utils.reporting import Table

ABLATIONS = {
    "all optimizations": OptimizationFlags(),
    "no modified checksums": OptimizationFlags(modified_checksums=False),
    "no postponed verification": OptimizationFlags(postpone_verification=False),
    "no incremental checksums": OptimizationFlags(incremental_checksums=False),
    "no contiguous buffer": OptimizationFlags(contiguous_buffer=False),
    "none (naive flags)": OptimizationFlags.all_off(),
}


@pytest.mark.parametrize("label", list(ABLATIONS.keys()))
def test_ablation_timing(benchmark, label):
    """Time the optimized online scheme with one optimization disabled."""

    n = seq_sizes()[0]
    x = make_input(n)
    scheme = OptimizedOnlineABFT(n, memory_ft=True, flags=ABLATIONS[label], backend=bench_backend())
    scheme.execute(x)
    result = benchmark(scheme.execute, x)
    assert not result.report.detected
    benchmark.extra_info["ablation"] = label


def test_ablation_table(benchmark):
    def run() -> Table:
        n = seq_sizes()[-1]
        x = make_input(n)
        schemes = {"fftw": oracle_for("fftw", n)}
        for label, flags in ABLATIONS.items():
            schemes[label] = OptimizedOnlineABFT(
                n, memory_ft=True, flags=flags, backend=bench_backend()
            )
        overhead = interleaved_overhead(
            "fftw", {name: (lambda s=s: s.execute(x)) for name, s in schemes.items()}, repeats=9
        )
        table = Table(
            f"Ablation of the Section 4 optimizations (overhead % over plain FFT, N=2^{n.bit_length() - 1})",
            ["configuration", "overhead %"],
            digits=1,
        )
        for label in ABLATIONS:
            table.add_row(label, overhead[label])
        table.add_note("expected: every disabled optimization costs at least as much as 'all optimizations'")
        table.add_note(
            "measured: fault-free OptimizedOnlineABFT runs over PlainFFT; they take one group per "
            "part, whose columns are the whole contiguous working matrix, so the contiguous "
            "gather (Section 4.4) does nothing here by construction"
        )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    assert save_table(table, "ablations.txt").exists()


def test_model_vs_measured_table(benchmark):
    def run() -> Table:
        table = Table(
            "Section 7 operation-count model vs. measured overhead",
            ["scheme", "model % (2^25)", "model % (bench N)", "measured %"],
            digits=1,
        )
        n = seq_sizes()[-1]
        x = make_input(n)
        names = ["opt-offline", "opt-online", "opt-offline+mem", "opt-online+mem"]
        schemes = {name: oracle_for(name, n) for name in ["fftw", *names]}
        overhead = interleaved_overhead(
            "fftw", {name: (lambda s=s: s.execute(x)) for name, s in schemes.items()}, repeats=9
        )
        models = {
            "opt-offline": offline_scheme_ops,
            "opt-online": online_scheme_ops,
            "opt-offline+mem": lambda size: offline_scheme_ops(size, memory_ft=True),
            "opt-online+mem": lambda size: online_scheme_ops(size, memory_ft=True),
        }
        for name in names:
            table.add_row(
                name,
                100.0 * models[name](2**25).fault_free_ratio,
                100.0 * models[name](n).fault_free_ratio,
                overhead[name],
            )
        table.add_note(
            "the model predicts C/FFTW-level overheads; measured: the paper-exact schemes over "
            "PlainFFT on this repository's two-layer substrate"
        )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    assert save_table(table, "section7_model_vs_measured.txt").exists()
