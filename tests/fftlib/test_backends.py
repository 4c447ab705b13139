"""Tests for the FFT backend registry and the backend seam in the plans."""

import numpy as np
import pytest

from repro.fftlib.backends import (
    FFTBackend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    resolve_backend_name,
    set_default_backend,
)
from repro.fftlib.plan import PlanDirection
from repro.fftlib.planner import Planner, plan_fft
from repro.fftlib.two_layer import TwoLayerPlan


class TestRegistry:
    def test_builtins_present(self):
        assert {"fftlib", "numpy"} <= set(available_backends())

    def test_default_backend(self):
        assert default_backend_name() == "fftlib"
        assert resolve_backend_name(None) == "fftlib"
        assert get_backend(None) is get_backend("fftlib")

    def test_unknown_backend(self):
        with pytest.raises(KeyError, match="unknown FFT backend"):
            get_backend("cufft")

    def test_register_duplicate_rejected(self):
        class Dup(FFTBackend):
            name = "numpy"

            def fft(self, x, axis=-1):
                return np.fft.fft(x, axis=axis)

            def ifft(self, x, axis=-1):
                return np.fft.ifft(x, axis=axis)

        with pytest.raises(ValueError, match="already registered"):
            register_backend(Dup())

    def test_register_and_use_custom_backend(self, random_complex, spectra_close):
        class Negacyclic(FFTBackend):
            """A 'custom kernel' that just wraps pocketfft (for the test)."""

            name = "test-custom"
            description = "test double"

            def fft(self, x, axis=-1):
                return np.fft.fft(x, axis=axis)

            def ifft(self, x, axis=-1):
                return np.fft.ifft(x, axis=axis)

        try:
            register_backend(Negacyclic(), overwrite=True)
            x = random_complex(96)
            p = plan_fft(96, backend="test-custom")
            spectra_close(p.execute(x), np.fft.fft(x))
        finally:
            # the registry has no unregister; overwrite with a fresh instance
            # so repeated test runs in one process stay deterministic
            register_backend(Negacyclic(), overwrite=True)

    def test_set_default_backend_round_trip(self):
        set_default_backend("numpy")
        try:
            assert default_backend_name() == "numpy"
            assert resolve_backend_name(None) == "numpy"
        finally:
            set_default_backend("fftlib")


class TestBackendKernels:
    @pytest.mark.parametrize("name", ["fftlib", "numpy"])
    def test_fft_matches_numpy_along_axes(self, name, rng):
        backend = get_backend(name)
        X = rng.standard_normal((3, 5, 16)) + 1j * rng.standard_normal((3, 5, 16))
        for axis in (0, 1, 2, -1):
            np.testing.assert_allclose(
                backend.fft(X, axis=axis), np.fft.fft(X, axis=axis), atol=1e-9
            )
            np.testing.assert_allclose(
                backend.ifft(X, axis=axis), np.fft.ifft(X, axis=axis), atol=1e-9
            )


class TestBackendSeam:
    @pytest.mark.parametrize("name", ["fftlib", "numpy"])
    def test_plan_execute(self, name, random_complex, spectra_close):
        x = random_complex(120)
        p = plan_fft(120, backend=name)
        assert p.backend == name
        spectra_close(p.execute(x), np.fft.fft(x))
        spectra_close(p.inverse_plan().execute(x), np.fft.ifft(x))

    @pytest.mark.parametrize("name", ["fftlib", "numpy"])
    def test_two_layer_plan(self, name, random_complex, spectra_close):
        x = random_complex(256)
        tl = TwoLayerPlan(256, backend=name)
        assert tl.backend == name
        spectra_close(tl.execute(x), np.fft.fft(x))

    def test_wisdom_is_keyed_per_backend(self):
        planner = Planner()
        a = planner.plan(64)
        b = planner.plan(64, backend="numpy")
        assert a is not b
        assert planner.plan(64) is a
        assert planner.plan(64, PlanDirection.FORWARD, "numpy") is b

    def test_wisdom_export_includes_backend_and_accepts_legacy(self):
        planner = Planner()
        planner.plan(32, backend="numpy")
        data = planner.export_wisdom()
        assert "32:forward:numpy" in data
        other = Planner()
        other.import_wisdom({"16:forward": "mixed-radix"})  # legacy two-field key
        assert other.plan(16) is other.wisdom[(16, PlanDirection.FORWARD, "fftlib", False, False, True)]

    def test_schemes_accept_backend(self, random_complex, spectra_close):
        from repro.core.offline import OfflineABFT
        from repro.core.optimized import OptimizedOnlineABFT

        x = random_complex(256)
        for scheme in (
            OfflineABFT(256, backend="numpy"),
            OptimizedOnlineABFT(256, backend="numpy"),
        ):
            result = scheme.execute(x)
            assert not result.report.detected
            spectra_close(result.output, np.fft.fft(x))
