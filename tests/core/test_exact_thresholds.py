"""The kernel's verdicts with thresholds from exact norms.

Every threshold of the protected kernel scales the row's exact
``sigma0 = ||x||_2 / sqrt(2n)``, taken before the INPUT fault site opens.
So an impulse or a tone's spectrum is judged by its energy wherever that
sits, rows far from unit scale keep finite, non-zero thresholds, and a row
holding a NaN or an infinity has no threshold at all: it is reported
uncorrectable after one transform, with no retry.  Faults still meet the
same thresholds: bit flips and relative strikes on the input and the
output are detected and corrected on every kernel entry point.
"""

import warnings

import numpy as np
import pytest

from repro.core.ftplan import FTPlan
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSite
from repro.fftlib.executor import StageProgram
from repro.fftlib.protected import BackendProgram

N = 4096
CLEAN = (False, False, False)
LOST = (True, False, True)

_PLANS: dict = {}


def _plan(n=N, config="opt-online+mem"):
    """One uncached plan per size and config for the whole module."""

    if (n, config) not in _PLANS:
        _PLANS[n, config] = FTPlan(n, config)
    return _PLANS[n, config]


def _rows(rows=3, n=N, seed=5):
    """The paper's input: real and imaginary parts drawn from U(-1, 1)."""

    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, (rows, n)) + 1j * rng.uniform(-1, 1, (rows, n))


def _verdict(report):
    return report.detected, report.corrected, report.has_uncorrectable


def _close(output, expected):
    scale = np.max(np.abs(expected))
    return np.max(np.abs(output - expected)) <= 1e-12 * scale


class _Runs:
    """Count the plan's program runs (``StageProgram.execute``, or
    ``BackendProgram.execute`` on a foreign backend); ``strike(y)`` may
    corrupt the output of the first run, before the tap reads it."""

    def __init__(self, monkeypatch, strike=None):
        self.count = 0
        for owner in (StageProgram, BackendProgram):
            original = owner.execute

            def execute(program, x, out=None, _original=original):
                y = _original(program, x, out)
                self.count += 1
                if strike is not None and self.count == 1:
                    strike(y)
                return y

            monkeypatch.setattr(owner, "execute", execute)


def _flip(values, element, bit, imaginary=False):
    """Flip one bit of a complex element in place."""

    parts = values.reshape(-1).view(np.uint64)
    parts[2 * element + imaginary] ^= np.uint64(1) << np.uint64(bit)


class TestCleanSignals:
    """Fault-free signals whose energy a strided sample misses decide clean."""

    @pytest.mark.parametrize(
        "config", ["opt-online+mem", "opt-offline+mem", "opt-online+mem+numpy"]
    )
    @pytest.mark.parametrize("offset", range(8))
    def test_unit_impulse(self, config, offset):
        p = _plan(config=config)
        x = np.zeros(N, dtype=complex)
        x[offset] = 1.0
        single = p.execute(x)
        batch = p.execute_many(np.stack([x, x]))
        assert _verdict(single.report) == CLEAN
        assert not batch.report.detected and not batch.fallback_rows
        spectrum = np.exp(-2j * np.pi * offset * np.arange(N) / N)
        assert _close(single.output, spectrum) and _close(batch.output[1], spectrum)

    @pytest.mark.parametrize("offset", range(8))
    def test_unit_impulse_on_a_real_plan(self, offset):
        x = np.zeros(N)
        x[offset] = 1.0
        result = _plan(config="opt-online+mem+real").execute(x)
        assert _verdict(result.report) == CLEAN
        bins = np.arange(N // 2 + 1)
        assert _close(result.output, np.exp(-2j * np.pi * offset * bins / N))

    @pytest.mark.parametrize("config", ["opt-online+mem", "opt-online+mem+numpy"])
    def test_inverse_of_a_tone_spectrum(self, config):
        tone = np.cos(2 * np.pi * 5 * np.arange(N) / N)
        result = _plan(config=config).inverse(np.fft.fft(tone))
        assert _verdict(result.report) == CLEAN
        assert _close(result.output, tone)


SCALES = [1e-200, 1e-160, 1e160, 1e200]


class TestEveryMagnitude:
    """Rows far from unit scale: clean rows stay clean, strikes are seen."""

    @pytest.mark.parametrize("scale", SCALES)
    def test_clean_rows_decide_clean_without_warnings(self, scale):
        p = _plan()
        X = _rows() * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            single = p.execute(X[0])
            batch = p.execute_many(X)
            inverse = p.inverse(X[1])
        assert _verdict(single.report) == CLEAN and _verdict(inverse.report) == CLEAN
        assert not batch.report.detected
        assert _close(single.output, np.fft.fft(X[0]))
        assert _close(batch.output, np.fft.fft(X, axis=-1))

    @pytest.mark.parametrize("path", ["execute", "execute_many"])
    @pytest.mark.parametrize("scale", SCALES)
    def test_relative_output_strike_is_detected_and_corrected(self, monkeypatch, path, scale):
        p = _plan()
        X = _rows() * scale
        expected = np.fft.fft(X, axis=-1)
        amount = 1e-3 * np.max(np.abs(expected[1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if path == "execute":
                runs = _Runs(monkeypatch, strike=lambda y: y[..., 17].__iadd__(amount))
                result = p.execute(X[1])
                assert runs.count == 2
                assert _verdict(result.report) == (True, True, False)
                output = result.output
            else:
                injector = FaultInjector().arm_computational(
                    FaultSite.OUTPUT, element=N + 17, magnitude=amount
                )
                result = p.execute_many(X, injector=injector)
                assert injector.fired_count == 1
                assert result.fallback_rows == (1,) and not result.uncorrectable_rows
                output = result.output[1]
        assert _close(output, expected[1])


class TestNonFiniteInput:
    """A NaN or an infinity has no threshold: one transform, then the verdict."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize(
        "config, path",
        [
            ("opt-online+mem", "execute"),
            ("opt-online+mem", "inverse"),
            ("opt-online+mem", "execute_many"),
            ("opt-online+mem", "execute_out"),
            ("opt-offline", "execute"),
            ("opt-online+mem+numpy", "execute"),
            ("opt-online+mem+numpy", "inverse"),
            ("opt-online+mem+numpy", "execute_many"),
        ],
    )
    def test_reported_after_one_transform(self, monkeypatch, value, config, path):
        p = _plan(config=config)
        X = _rows()
        p.execute(X[0].copy(), out=X[0].copy())  # builds the out= route's surrogate weights
        X[1, 123] = value
        runs = _Runs(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if path == "execute_many":
                result = p.execute_many(X)
                assert set(result.fallback_rows) <= {1}
                flagged, dead = 1 in result.fallback_rows, 1 in result.uncorrectable_rows
                verdict = (flagged, flagged and not dead, dead)
            else:
                x = X[1].copy()
                if path == "inverse":
                    result = p.inverse(x)
                else:
                    result = p.execute(x, out=x if path == "execute_out" else None)
                verdict = _verdict(result.report)
        assert runs.count == 1
        assert verdict == LOST
        row = 1 if path == "execute_many" else 0
        assert result.report.uncorrectable == [f"row {row}: non-finite input"]
        assert not result.report.corrections

    def test_real_forward_and_inverse(self):
        p = _plan(config="opt-online+mem+real")
        x = np.random.default_rng(2).uniform(-1, 1, N)
        x[9] = np.nan
        assert _verdict(p.execute(x).report) == LOST
        packed = np.fft.rfft(np.random.default_rng(3).uniform(-1, 1, N))
        packed[4] = np.inf
        result = p.inverse(packed)
        assert result.report.uncorrectable == ["row 0: non-finite input"]


#: the Table 6 fault model: one high mantissa or exponent bit
BITS = {N: range(50, 63), 1 << 18: (50, 54, 58, 62)}


class TestBitFlips:
    """INPUT and OUTPUT bit flips on every kernel entry point are detected
    and corrected (``execute`` and ``inverse`` take a live injector down the
    scheme path, so their strikes are stand-ins at the same points)."""

    @pytest.mark.parametrize("path", ["execute", "inverse", "execute_many"])
    @pytest.mark.parametrize("site", ["input", "output"])
    @pytest.mark.parametrize("n", [N, 1 << 18])
    def test_detected_and_corrected(self, monkeypatch, n, site, path):
        p = _plan(n)
        X = _rows(2, n, seed=n)
        if path == "inverse":
            expected = np.fft.ifft(X, axis=-1)
        else:
            expected = np.fft.fft(X, axis=-1)
        for bit in BITS[n]:
            imaginary = bit % 2 == 1
            if path == "execute_many":
                injector = FaultInjector().arm_bitflip(
                    FaultSite(site), element=n + 123, bit=bit, imaginary=imaginary
                )
                result = p.execute_many(X, injector=injector)
                assert injector.fired_count == 1, bit
                assert result.fallback_rows == (1,) and not result.uncorrectable_rows, bit
                output = result.output[1]
            else:
                monkeypatch.undo()
                x = X[1].copy()
                if site == "input":
                    # the tile after its encode, before the program reads it
                    original = StageProgram.execute

                    def execute(program, data, out=None, _bit=bit, _imaginary=imaginary):
                        if not execute.done:
                            execute.done = True
                            _flip(data, 123, _bit, _imaginary)
                        return original(program, data, out)

                    execute.done = False
                    monkeypatch.setattr(StageProgram, "execute", execute)
                else:
                    _Runs(monkeypatch, strike=lambda y, b=bit, i=imaginary: _flip(y, 123, b, i))
                result = (p.inverse if path == "inverse" else p.execute)(x)
                assert _verdict(result.report) == (True, True, False), bit
                output = result.output
            assert _close(output, expected[1]), bit
