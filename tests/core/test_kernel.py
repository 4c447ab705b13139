"""The protected kernel behind every ``FTPlan`` entry point.

``execute``, ``execute_many`` and their ``out=`` forms are one kernel at
different tile counts, so the same corruption must meet the same retry
budget and get the same verdict on all of them; every row check counts
once.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core.base import OptimizationFlags
from repro.core.config import FTConfig
from repro.core.ftplan import TILE_ELEMENTS, FTPlan
from repro.fftlib.executor import StageProgram

N = 4096
PATHS = ["execute", "execute_many", "execute_out", "execute_many_out"]


def _batch(n=N, rows=3, seed=5):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, (rows, n)) + 1j * rng.uniform(-1, 1, (rows, n))


class _Corrupt:
    """``StageProgram.execute`` as it is, except that its runs on the input
    row ``target`` add 1e3 at ``elements`` of that row's output: on the
    first such run only, or on every one (``persistent``)."""

    def __init__(self, monkeypatch, target, elements, persistent):
        self.runs = 0
        original = StageProgram.execute

        def execute(program, x, out=None):
            y = original(program, x, out)
            rows = zip(np.asarray(x).reshape(-1, program.n), y.reshape(-1, program.n))
            for data, spectrum in rows:
                if np.array_equal(data, target):
                    self.runs += 1
                    if persistent or self.runs == 1:
                        spectrum[elements] += 1e3
            return y

        monkeypatch.setattr(StageProgram, "execute", execute)


def _run(path, plan, X, row=1):
    """``(verdict, spectrum)`` of batch row ``row`` through entry point ``path``."""

    if path in ("execute", "execute_out"):
        x = X[row].copy()
        result = plan.execute(x, out=x if path == "execute_out" else None)
        report = result.report
        return (report.detected, report.corrected, report.has_uncorrectable), result.output
    B = X.copy()
    result = plan.execute_many(B, out=B if path == "execute_many_out" else None)
    # rows other than the corrupted one stay clean
    assert set(result.fallback_rows) <= {row}
    detected, dead = row in result.fallback_rows, row in result.uncorrectable_rows
    return (detected, detected and not dead, dead), result.output[row]


#: one-shot: one element of one program run; persistent: two elements of
#: every run, which neither a recompute nor a single-element repair clears
CORRUPTIONS = {"one-shot": ([17], False), "persistent": ([17, 40], True)}


class TestRetryBudget:
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("corruption", list(CORRUPTIONS))
    @pytest.mark.parametrize("max_retries", [0, 1, 2])
    def test_one_budget_one_verdict(self, monkeypatch, max_retries, corruption, path):
        plan = FTPlan(N, FTConfig(flags=OptimizationFlags(max_retries=max_retries)))
        X = _batch()
        elements, persistent = CORRUPTIONS[corruption]
        corrupt = _Corrupt(monkeypatch, X[1], elements, persistent)
        verdict, _ = _run(path, plan, X)
        assert corrupt.runs <= max_retries + 1
        recovered = corruption == "one-shot" and max_retries > 0
        # detected, corrected, uncorrectable: the same on every path
        assert verdict == (True, recovered, not recovered)


class TestParity:
    """The same inputs and corruption give every entry point the same verdict
    and, where the kernel keeps or recomputes the spectrum, the same one."""

    @pytest.mark.parametrize("case", ["clean", "detect-only", "persistent", "recovered"])
    def test_every_entry_point_agrees(self, monkeypatch, case):
        max_retries = 0 if case == "detect-only" else 2
        plan = FTPlan(N, FTConfig(flags=OptimizationFlags(max_retries=max_retries)))
        X = _batch()
        clean = {path: _run(path, plan, X)[1] for path in PATHS}
        elements, persistent = CORRUPTIONS["persistent" if case == "persistent" else "one-shot"]
        runs = {}
        for path in PATHS:
            if case != "clean":
                _Corrupt(monkeypatch, X[1], elements, persistent)
            runs[path] = _run(path, plan, X)
            monkeypatch.undo()
        verdicts = {verdict for verdict, _ in runs.values()}
        assert len(verdicts) == 1, runs
        spectra = [spectrum for _, spectrum in runs.values()]
        reference = clean["execute"]
        assert all(np.array_equal(c, reference) for c in clean.values())
        if case != "recovered":
            assert all(np.array_equal(s, spectra[0]) for s in spectra)
            return
        assert verdicts == {(True, True, False)}
        # recomputed rows are bitwise clean; an overwritten row's element is
        # rebuilt from the carried surrogate, to roundoff
        assert np.array_equal(runs["execute"][1], reference)
        assert np.array_equal(runs["execute_many"][1], reference)
        for path in ("execute_out", "execute_many_out"):
            assert np.allclose(runs[path][1], reference, rtol=0, atol=1e-9)


def _verifications():
    return sum(v for (name, _), v in telemetry.counters().items() if name == "abft_verifications")


class TestEachCheckCountsOnce:
    """One ``abft_verifications`` per row check: one per row, two for a real
    forward row (the end-to-end check and the interior pair)."""

    @pytest.mark.parametrize(
        "real, call, checks",
        [
            (False, "execute", 1),
            (False, "inverse", 1),
            (False, "execute_many", 3),
            (False, "execute_out", 1),
            (False, "execute_many_out", 3),
            (False, "execute_many_tiled", 2 * TILE_ELEMENTS // 1024 + 1),
            (True, "execute", 2),
            (True, "inverse", 1),
            (True, "execute_many", 6),
            (True, "execute_out", 2),
            (True, "execute_many_out", 6),
        ],
    )
    def test_counts(self, real, call, checks):
        n = 1024 if call == "execute_many_tiled" else N
        plan = FTPlan(n, FTConfig(real=real))
        X = _batch(n, rows=checks if call == "execute_many_tiled" else 3)
        X = X.real.copy() if real else X
        bins = plan.bins if real else n
        before = _verifications()
        if call == "execute":
            report = plan.execute(X[0]).report
        elif call == "inverse":
            report = plan.inverse(np.fft.rfft(X[0]) if real else X[0]).report
        elif call == "execute_out":
            out = np.empty(bins, dtype=complex)
            report = plan.execute(X[0].copy(), out=out).report
        elif call == "execute_many_out":
            B = np.empty((3, bins), dtype=complex) if real else X.copy()
            report = plan.execute_many(X if real else B, out=B).report
        else:
            report = plan.execute_many(X).report
        assert not report.detected
        assert report.counters["verifications"] == checks
        assert report.summary()["verifications"] == checks
        assert _verifications() - before == checks
