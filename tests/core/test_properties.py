"""Property-based tests on the ABFT invariants (hypothesis).

The properties mirror the paper's correctness arguments:

* the checksum identity ``r . (A x) == (rA) . x`` holds for any input;
* a single corrupted element of a protected vector is always located and
  exactly repaired by the dual checksums, wherever it is and whatever the
  corruption magnitude (within floating-point resolution);
* any single computational or memory fault injected into a protected
  transform leaves the final output correct (the end-to-end guarantee of
  Section 3).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.checksums import (
    computational_weights,
    input_checksum_weights,
    locate_single_error,
    memory_weights_classic,
    memory_weights_modified,
)
from repro.core.optimized import OptimizedOnlineABFT
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSite
from repro.fftlib.executor import fft

SIZES = st.sampled_from([8, 16, 20, 32, 50, 64, 100, 128])


def complex_vector(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


@settings(max_examples=40, deadline=None)
@given(n=SIZES, seed=st.integers(0, 2**31 - 1))
def test_checksum_identity(n, seed):
    x = complex_vector(n, seed)
    lhs = np.dot(computational_weights(n), fft(x))
    rhs = np.dot(input_checksum_weights(n), x)
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) < 1e-10 * scale * n


@settings(max_examples=40, deadline=None)
@given(
    n=SIZES,
    seed=st.integers(0, 2**31 - 1),
    position=st.integers(0, 10_000),
    magnitude=st.floats(1e-3, 1e3),
    use_modified=st.booleans(),
)
def test_single_memory_error_always_located_and_repaired(
    n, seed, position, magnitude, use_modified
):
    x = complex_vector(n, seed)
    position = position % n
    w1, w2 = memory_weights_modified(n) if use_modified else memory_weights_classic(n)
    s1, s2 = np.dot(w1, x), np.dot(w2, x)
    corrupted = x.copy()
    corrupted[position] += magnitude * (1 - 0.5j)
    located = locate_single_error(corrupted, w1, w2, s1, s2)
    assert located is not None
    index, delta = located
    assert index == position
    corrupted[index] -= delta
    assert np.allclose(corrupted, x, atol=1e-7 * max(magnitude, 1.0))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    sub_fft=st.integers(0, 63),
    magnitude=st.floats(1e-4, 1e4),
    stage=st.sampled_from([FaultSite.STAGE1_COMPUTE, FaultSite.STAGE2_COMPUTE]),
)
def test_any_single_computational_fault_is_corrected(seed, sub_fft, magnitude, stage):
    n = 1024
    x = complex_vector(n, seed)
    reference = np.fft.fft(x)
    injector = FaultInjector().arm_computational(stage, index=sub_fft % 32, magnitude=magnitude)
    result = OptimizedOnlineABFT(n, memory_ft=False).execute(x, injector)
    err = np.max(np.abs(result.output - reference)) / np.max(np.abs(reference))
    assert err < 1e-8


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    element=st.integers(0, 10_000),
    magnitude=st.floats(0.5, 1e3),
    site=st.sampled_from([FaultSite.STAGE1_INPUT, FaultSite.INTERMEDIATE, FaultSite.OUTPUT]),
)
def test_any_single_memory_fault_is_corrected(seed, element, magnitude, site):
    n = 1024
    x = complex_vector(n, seed)
    reference = np.fft.fft(x)
    injector = FaultInjector().arm_memory(site, element=element, magnitude=magnitude)
    result = OptimizedOnlineABFT(n, memory_ft=True).execute(x, injector)
    err = np.max(np.abs(result.output - reference)) / np.max(np.abs(reference))
    assert err < 1e-8
    assert not result.report.has_uncorrectable


@settings(max_examples=20, deadline=None)
@given(n=SIZES, seed=st.integers(0, 2**31 - 1), scale=st.floats(1e-8, 1e8))
def test_no_false_positives_across_scales(n, seed, scale):
    x = complex_vector(max(n, 16), seed, scale=scale)
    result = OptimizedOnlineABFT(x.size, memory_ft=True).execute(x)
    assert not result.report.detected
