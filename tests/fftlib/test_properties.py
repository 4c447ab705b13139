"""Property-based tests for the FFT substrate (hypothesis).

These exercise algebraic invariants of the compiled executor - the engine
plans and the ``fftlib`` backend run - on randomly drawn sizes and data:
linearity, Parseval's theorem, the shift theorem, round-trip identity, and
agreement between the independent implementations (executor vs. direct DFT
vs. two-layer decomposition).  ``LARGE_SIZES`` reach past the executor's
native crossover (2048 elements), where single calls run the generated-C
stage bodies when the tier is available.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.fftlib.dft import direct_dft
from repro.fftlib.executor import fft, ifft
from repro.fftlib.two_layer import TwoLayerPlan
from repro.fftlib.factorization import balanced_split

# Sizes kept modest so the whole property suite runs in a few seconds.
SIZES = st.integers(min_value=1, max_value=96)
COMPOSITE_SIZES = st.sampled_from(
    [4, 6, 8, 9, 12, 16, 20, 24, 30, 32, 36, 48, 60, 64, 72, 90, 96, 128]
)
# Powers of two and composites at and past the native crossover.
LARGE_SIZES = st.sampled_from([2048, 3072, 4096, 6144, 20480])


def complex_vector(n: int, seed: int, scale: float = 1.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


@settings(max_examples=40, deadline=None)
@given(n=SIZES, seed=st.integers(0, 2**31 - 1))
def test_fft_matches_direct_dft(n, seed):
    x = complex_vector(n, seed)
    assert np.allclose(fft(x), direct_dft(x), atol=1e-7 * max(n, 1))


@settings(max_examples=40, deadline=None)
@given(n=SIZES, seed=st.integers(0, 2**31 - 1))
def test_round_trip_identity(n, seed):
    x = complex_vector(n, seed)
    assert np.allclose(ifft(fft(x)), x, atol=1e-8 * max(n, 1))


@settings(max_examples=40, deadline=None)
@given(n=SIZES, seed=st.integers(0, 2**31 - 1), a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_linearity(n, seed, a, b):
    x = complex_vector(n, seed)
    y = complex_vector(n, seed + 1)
    lhs = fft(a * x + b * y)
    rhs = a * fft(x) + b * fft(y)
    assert np.allclose(lhs, rhs, atol=1e-7 * max(n, 1))


@settings(max_examples=40, deadline=None)
@given(n=SIZES, seed=st.integers(0, 2**31 - 1))
def test_parseval_energy_conservation(n, seed):
    x = complex_vector(n, seed)
    time_energy = np.sum(np.abs(x) ** 2)
    freq_energy = np.sum(np.abs(fft(x)) ** 2) / n
    assert np.isclose(time_energy, freq_energy, rtol=1e-9, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(n=SIZES.filter(lambda v: v >= 2), seed=st.integers(0, 2**31 - 1), shift=st.integers(0, 10))
def test_circular_shift_theorem(n, seed, shift):
    x = complex_vector(n, seed)
    shift = shift % n
    shifted = np.roll(x, shift)
    phase = np.exp(-2j * np.pi * shift * np.arange(n) / n)
    assert np.allclose(fft(shifted), fft(x) * phase, atol=1e-7 * n)


@settings(max_examples=30, deadline=None)
@given(n=COMPOSITE_SIZES, seed=st.integers(0, 2**31 - 1))
def test_two_layer_agrees_with_direct_dft(n, seed):
    x = complex_vector(n, seed)
    assert np.allclose(TwoLayerPlan(n).execute(x), direct_dft(x), atol=1e-8 * n)


@settings(max_examples=30, deadline=None)
@given(n=COMPOSITE_SIZES, seed=st.integers(0, 2**31 - 1))
def test_two_layer_independent_of_factorisation(n, seed):
    x = complex_vector(n, seed)
    m, k = balanced_split(n)
    default = TwoLayerPlan(n, m, k).execute(x)
    swapped = TwoLayerPlan(n, k, m).execute(x)
    assert np.allclose(default, swapped, atol=1e-8 * n)


@settings(max_examples=30, deadline=None)
@given(n=SIZES, seed=st.integers(0, 2**31 - 1))
def test_impulse_response_is_all_ones(n, seed):
    x = np.zeros(n, dtype=np.complex128)
    x[0] = 1.0
    assert np.allclose(fft(x), np.ones(n), atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(n=SIZES, seed=st.integers(0, 2**31 - 1))
def test_conjugate_symmetry_for_real_input(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n).astype(np.complex128)
    spectrum = fft(x)
    mirrored = np.conj(spectrum[(-np.arange(n)) % n])
    assert np.allclose(spectrum, mirrored, atol=1e-8 * max(n, 1))


@settings(max_examples=20, deadline=None)
@given(n=SIZES, seed=st.integers(0, 2**31 - 1), scale=st.floats(1e-6, 1e6))
def test_scaling_homogeneity(n, seed, scale):
    x = complex_vector(n, seed)
    assert np.allclose(fft(scale * x), scale * fft(x), rtol=1e-9, atol=1e-9 * scale * n)


@settings(max_examples=10, deadline=None)
@given(n=LARGE_SIZES, seed=st.integers(0, 2**31 - 1))
def test_large_sizes_match_numpy_and_round_trip(n, seed):
    x = complex_vector(n, seed)
    spectrum = fft(x)
    assert np.allclose(spectrum, np.fft.fft(x), atol=1e-9 * n)
    assert np.allclose(ifft(spectrum), x, atol=1e-12 * n)


@settings(max_examples=10, deadline=None)
@given(n=LARGE_SIZES, seed=st.integers(0, 2**31 - 1), a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_large_sizes_linearity(n, seed, a, b):
    x = complex_vector(n, seed)
    y = complex_vector(n, seed + 1)
    assert np.allclose(fft(a * x + b * y), a * fft(x) + b * fft(y), atol=1e-9 * n)


@settings(max_examples=10, deadline=None)
@given(n=LARGE_SIZES, seed=st.integers(0, 2**31 - 1))
def test_large_sizes_parseval(n, seed):
    x = complex_vector(n, seed)
    time_energy = np.sum(np.abs(x) ** 2)
    freq_energy = np.sum(np.abs(fft(x)) ** 2) / n
    assert np.isclose(time_energy, freq_energy, rtol=1e-10)


@settings(max_examples=10, deadline=None)
@given(n=LARGE_SIZES, seed=st.integers(0, 2**31 - 1), shift=st.integers(0, 2**20))
def test_large_sizes_circular_shift_theorem(n, seed, shift):
    x = complex_vector(n, seed)
    shift = shift % n
    phase = np.exp(-2j * np.pi * shift * np.arange(n) / n)
    assert np.allclose(fft(np.roll(x, shift)), fft(x) * phase, atol=1e-9 * n)
