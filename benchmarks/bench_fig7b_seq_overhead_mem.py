"""Figure 7(b): sequential overhead with computational *and* memory FT.

Same methodology as Fig. 7(a), the paper-exact schemes timed against
``PlainFFT``; the schemes additionally generate, carry and verify the
locating memory checksums (Section 3.2 / Fig. 2 vs. the optimized hierarchy
of Fig. 3).
"""

from __future__ import annotations

import pytest

from _harness import interleaved_overhead, make_input, oracle_for, save_table, seq_sizes
from repro.perfmodel import predict_sequential
from repro.utils.reporting import Table

#: Figure 7(b) bars, in paper order (all schemes include memory FT except the
#: baseline).
SCHEMES = ["fftw", "offline+mem", "opt-offline+mem", "online+mem", "opt-online+mem"]


@pytest.mark.parametrize("n", seq_sizes())
@pytest.mark.parametrize("scheme", SCHEMES)
def test_fig7b_scheme_timing(benchmark, scheme, n):
    x = make_input(n)
    instance = oracle_for(scheme, n)
    instance.execute(x)
    result = benchmark(instance.execute, x)
    assert result.output.shape == (n,)
    benchmark.extra_info["scheme"] = scheme
    benchmark.extra_info["n"] = n


def test_fig7b_overhead_table(benchmark):
    def run():
        table = Table(
            "Fig. 7(b) - sequential overhead, computational + memory FT (percent over plain FFT)",
            ["N", "Offline", "Opt-Offline", "Online", "Opt-Online"],
            digits=1,
        )
        for n in seq_sizes():
            x = make_input(n)
            schemes = {name: oracle_for(name, n) for name in SCHEMES}
            overhead = interleaved_overhead(
                "fftw",
                {name: (lambda s=s, x=x: s.execute(x)) for name, s in schemes.items()},
                repeats=9,
            )
            table.add_row(
                f"2^{n.bit_length() - 1}",
                overhead["offline+mem"],
                overhead["opt-offline+mem"],
                overhead["online+mem"],
                overhead["opt-online+mem"],
            )
        for n_exp in (25, 28):
            preds = {p.scheme: p for p in predict_sequential(2**n_exp)}
            table.add_row(
                f"2^{n_exp} (model)",
                None,
                preds["opt-offline+mem"].overhead_percent,
                None,
                preds["opt-online+mem"].overhead_percent,
            )
        table.add_note("paper: Offline ~100%, Opt-Offline ~35%, Online ~42%, Opt-Online ~36%")
        table.add_note(
            "measured rows: each paper-exact scheme's fault-free run (one group per part) over "
            "PlainFFT on the same two-layer substrate"
        )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    assert save_table(table, "fig7b.txt").exists()
