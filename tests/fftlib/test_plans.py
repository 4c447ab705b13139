"""Tests for Plan, Planner, and the layered decomposition plans."""

import numpy as np
import pytest

from repro.fftlib.executor import clear_program_cache, get_program
from repro.fftlib.plan import Plan, PlanDirection, estimate_flops
from repro.fftlib.planner import Planner, get_default_planner, plan_fft
from repro.fftlib.three_layer import ThreeLayerPlan
from repro.fftlib.two_layer import TwoLayerDecomposition, TwoLayerPlan


def _signal(n, seed=7, batch=None):
    rng = np.random.default_rng(seed)
    shape = (n,) if batch is None else (batch, n)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestPlan:
    def test_forward_execution(self, random_complex, spectra_close):
        p = Plan(48)
        x = random_complex(48)
        spectra_close(p.execute(x), np.fft.fft(x))

    def test_backward_execution(self, random_complex, spectra_close):
        p = Plan(48, PlanDirection.BACKWARD)
        x = random_complex(48)
        spectra_close(p.execute(x), np.fft.ifft(x), rtol_scale=1e-8)

    def test_execute_batch_other_axis(self, random_complex, spectra_close):
        p = Plan(12)
        x = random_complex(12 * 5).reshape(12, 5)
        spectra_close(p.execute_batch(x, axis=0), np.fft.fft(x, axis=0))

    def test_size_mismatch_raises(self, random_complex):
        with pytest.raises(ValueError):
            Plan(8).execute(random_complex(9))

    def test_inverse_plan_flips_direction(self):
        p = Plan(16)
        assert p.inverse_plan().direction is PlanDirection.BACKWARD
        assert p.inverse_plan().inverse_plan().direction is PlanDirection.FORWARD

    def test_describe_mentions_size(self):
        assert "n=24" in Plan(24).describe()

    def test_flops_estimate_positive_and_monotone(self):
        assert estimate_flops(64) > estimate_flops(16) > 0

    def test_plan_is_hashable_and_frozen(self):
        p = Plan(8)
        assert hash(p) == hash(Plan(8))
        with pytest.raises(Exception):
            p.n = 9


class TestPlanner:
    def test_wisdom_caches_plans(self):
        planner = Planner()
        assert planner.plan(32) is planner.plan(32)

    def test_forget_clears_wisdom(self):
        planner = Planner()
        planner.plan(16)
        planner.forget()
        assert planner.wisdom == {}

    def test_wisdom_export_import_round_trip(self):
        planner = Planner()
        planner.plan(32)
        planner.plan(13, PlanDirection.BACKWARD)
        data = planner.export_wisdom()
        other = Planner()
        other.import_wisdom(data)
        assert other.plan(32).program is planner.plan(32).program
        restored = other.plan(13, PlanDirection.BACKWARD)
        assert restored is other.wisdom[(13, PlanDirection.BACKWARD, "fftlib", False, False, True)]

    def test_default_planner_shared(self):
        assert get_default_planner() is get_default_planner()
        assert plan_fft(16) is plan_fft(16)

    def test_export_never_resolves_a_lowering(self, monkeypatch):
        """Plans below the native crossover never load the kernel library,
        and exporting them does not either."""

        import repro.fftlib.native as native

        def refuse(program):
            raise AssertionError("export_wisdom resolved a native lowering")

        clear_program_cache()
        monkeypatch.setattr(native, "build_native_program", refuse)
        planner = Planner()
        planner.plan(1024, inplace=True)
        planner.plan(64)
        data = planner.export_wisdom()
        assert {"1024:forward:fftlib:ip", "64:forward:fftlib"} <= set(data)
        monkeypatch.undo()
        clear_program_cache()


class TestWisdomImportValidation:
    """A malformed snapshot raises ValueError naming the key, importing nothing."""

    @pytest.mark.parametrize(
        "key, message",
        [
            ("16", "needs at least 'n:direction'"),
            ("", "needs at least 'n:direction'"),
            ("abc:forward", "size 'abc' is not a positive integer"),
            ("0:forward", "size '0' is not a positive integer"),
            ("-8:forward", "size '-8' is not a positive integer"),
            ("16.5:forward", "size '16.5' is not a positive integer"),
            ("16:sideways", "unknown direction 'sideways'"),
            ("16:forward:bogus", "unknown FFT backend 'bogus'"),
        ],
    )
    def test_bad_key_raises_value_error_naming_it(self, key, message):
        planner = Planner()
        with pytest.raises(ValueError, match=message) as exc:
            planner.import_wisdom({"32:forward:fftlib": "x", key: "x"})
        assert repr(key) in str(exc.value)
        assert planner.wisdom == {}

    @pytest.mark.parametrize("data", [[], "16:forward", None, 3])
    def test_snapshot_must_be_a_dict(self, data):
        with pytest.raises(ValueError, match="JSON object"):
            Planner().import_wisdom(data)


class TestPlanFFT:
    """``plan_fft`` plans run their compiled program on the caller's thread."""

    # even power of two, even composite, odd composite, prime
    SIZES = (4096, 6144, 6561, 4099)

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_numpy_single(self, n):
        x = _signal(n)
        assert np.allclose(plan_fft(n).execute(x), np.fft.fft(x))

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_numpy_batched(self, n):
        X = _signal(n, batch=7)
        assert np.allclose(plan_fft(n).execute(X), np.fft.fft(X, axis=-1))

    @pytest.mark.parametrize("n", SIZES)
    def test_backward_matches_numpy(self, n):
        x = _signal(n, seed=3)
        assert np.allclose(plan_fft(n, PlanDirection.BACKWARD).execute(x), np.fft.ifft(x))

    def test_nd_batch_shape_preserved(self):
        X = _signal(4096, batch=6).reshape(2, 3, 4096)
        out = plan_fft(4096).execute(X)
        assert out.shape == X.shape
        assert np.allclose(out, np.fft.fft(X, axis=-1))

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            plan_fft(4096).execute(np.zeros(100, dtype=complex))

    def test_empty_batch_keeps_its_shape(self):
        empty = np.empty((0, 4096), dtype=complex)
        assert plan_fft(4096).execute(empty).shape == (0, 4096)

    def test_repeated_runs_bitwise_identical(self):
        plan = plan_fft(8192)
        x = _signal(8192, seed=1)
        first = plan.execute(x)
        for _ in range(3):
            assert np.array_equal(first, plan.execute(x))

    def test_lowers_the_shared_compiled_program(self):
        plan = Planner().plan(1 << 14)
        assert plan.program is get_program(1 << 14)
        assert "threads" not in plan.describe()

    def test_numpy_backend_plan(self):
        x = _signal(1 << 14, seed=4)
        assert np.allclose(plan_fft(1 << 14, backend="numpy").execute(x), np.fft.fft(x))

    def test_real_plan(self):
        plan = plan_fft(1 << 14, real=True)
        assert plan.real
        x = np.random.default_rng(5).standard_normal(1 << 14)
        assert np.allclose(plan.execute(x), np.fft.rfft(x))


class TestTwoLayerDecomposition:
    def test_balanced_default(self):
        d = TwoLayerDecomposition.for_size(4096)
        assert (d.m, d.k) == (64, 64)

    def test_explicit_factors(self):
        d = TwoLayerDecomposition.for_size(24, m=6, k=4)
        assert (d.m, d.k) == (6, 4)

    def test_only_m_given(self):
        d = TwoLayerDecomposition.for_size(24, m=8)
        assert (d.m, d.k) == (8, 3)

    def test_only_k_given(self):
        d = TwoLayerDecomposition.for_size(24, k=3)
        assert (d.m, d.k) == (8, 3)

    def test_invalid_factorisation_rejected(self):
        with pytest.raises(ValueError):
            TwoLayerDecomposition.for_size(24, m=7)
        with pytest.raises(ValueError):
            TwoLayerDecomposition(n=24, m=5, k=5)

    def test_index_maps(self):
        d = TwoLayerDecomposition.for_size(12, m=4, k=3)
        assert d.input_index(sub_fft=1, element=2) == 2 * 3 + 1
        assert d.output_index(outer_index=2, inner_output=3) == 2 * 4 + 3


class TestTwoLayerPlan:
    @pytest.mark.parametrize("n,m,k", [(12, 4, 3), (64, 8, 8), (100, 10, 10), (720, None, None), (1024, 32, 32)])
    def test_execute_matches_numpy(self, n, m, k, random_complex, spectra_close):
        x = random_complex(n)
        spectra_close(TwoLayerPlan(n, m, k).execute(x), np.fft.fft(x))

    def test_backward_direction(self, random_complex, spectra_close):
        x = random_complex(144)
        plan = TwoLayerPlan(144, direction=PlanDirection.BACKWARD)
        spectra_close(plan.execute(x), np.fft.ifft(x), rtol_scale=1e-8)

    def test_stage_by_stage_equals_execute(self, random_complex):
        plan = TwoLayerPlan(60, 10, 6)
        x = random_complex(60)
        work = plan.gather_input(x)
        manual = plan.scatter_output(plan.stage2(plan.apply_twiddle(plan.stage1(work))))
        assert np.allclose(manual, plan.execute(x), atol=1e-12)

    def test_stage1_single_matches_column(self, random_complex):
        plan = TwoLayerPlan(60, 10, 6)
        work = plan.gather_input(random_complex(60))
        full = plan.stage1(work)
        for i in [0, 3, 5]:
            assert np.allclose(plan.stage1_single(work, i), full[:, i], atol=1e-12)

    def test_stage2_single_matches_row(self, random_complex):
        plan = TwoLayerPlan(60, 10, 6)
        work = plan.apply_twiddle(plan.stage1(plan.gather_input(random_complex(60))))
        full = plan.stage2(work)
        for j in [0, 4, 9]:
            assert np.allclose(plan.stage2_single(work, j), full[j, :], atol=1e-12)

    def test_stage1_columns_matches_slices(self, random_complex):
        plan = TwoLayerPlan(64, 8, 8)
        work = plan.gather_input(random_complex(64))
        full = plan.stage1(work)
        assert np.allclose(plan.stage1_columns(work, 2, 6), full[:, 2:6], atol=1e-12)

    def test_stage2_rows_matches_slices(self, random_complex):
        plan = TwoLayerPlan(64, 8, 8)
        work = plan.apply_twiddle(plan.stage1(plan.gather_input(random_complex(64))))
        full = plan.stage2(work)
        assert np.allclose(plan.stage2_rows(work, 1, 4), full[1:4, :], atol=1e-12)

    def test_twiddle_column_matches_matrix(self, random_complex):
        plan = TwoLayerPlan(24, 6, 4)
        col = random_complex(6)
        assert np.allclose(plan.twiddle_column(col, 2), col * plan.twiddles[:, 2])

    def test_gather_rejects_wrong_length(self, random_complex):
        with pytest.raises(ValueError):
            TwoLayerPlan(24).gather_input(random_complex(25))

    def test_out_of_range_sub_fft_raises(self, random_complex):
        plan = TwoLayerPlan(24, 6, 4)
        work = plan.gather_input(random_complex(24))
        with pytest.raises(IndexError):
            plan.stage1_single(work, 4)
        with pytest.raises(IndexError):
            plan.stage2_single(work, 6)

    def test_wrong_work_shape_raises(self):
        plan = TwoLayerPlan(24, 6, 4)
        with pytest.raises(ValueError):
            plan.stage1(np.zeros((4, 6), dtype=complex))


class TestThreeLayerPlan:
    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 512, 2048])
    def test_execute_matches_numpy(self, n, random_complex, spectra_close):
        x = random_complex(n)
        spectra_close(ThreeLayerPlan(n).execute(x), np.fft.fft(x))

    def test_factorisation_invariant(self):
        plan = ThreeLayerPlan(128)
        assert plan.r * plan.k * plan.k == 128

    def test_explicit_factors(self, random_complex, spectra_close):
        plan = ThreeLayerPlan(72, r=2, k=6)
        assert (plan.r, plan.k) == (2, 6)
        x = random_complex(72)
        spectra_close(plan.execute(x), np.fft.fft(x))

    def test_r_equal_one_square_size(self, random_complex, spectra_close):
        plan = ThreeLayerPlan(64, r=1, k=8)
        x = random_complex(64)
        spectra_close(plan.execute(x), np.fft.fft(x))

    def test_invalid_factors_rejected(self):
        with pytest.raises(ValueError):
            ThreeLayerPlan(64, r=3, k=4)

    def test_layerwise_equals_execute(self, random_complex):
        plan = ThreeLayerPlan(128)
        x = random_complex(128)
        work = plan.gather_input(x)
        manual = plan.scatter_output(
            plan.layer3(
                plan.apply_outer_twiddle(plan.layer2(plan.apply_inner_twiddle(plan.layer1(work))))
            )
        )
        assert np.allclose(manual, plan.execute(x), atol=1e-10)


class TestInPlacePlan:
    """In-place plans: ``plan_fft(n, inplace=True).execute_inplace``."""

    @pytest.mark.parametrize("n", [16, 64, 100, 1024])
    def test_execute_overwrites_buffer(self, n, random_complex, spectra_close):
        x = random_complex(n)
        buffer = x.copy()
        result = plan_fft(n, inplace=True).execute_inplace(buffer)
        assert result is buffer
        spectra_close(buffer, np.fft.fft(x))

    def test_requires_contiguous_complex_buffer(self):
        plan = plan_fft(16, inplace=True)
        with pytest.raises(ValueError):
            plan.execute_inplace(np.zeros(16, dtype=np.float64))
        with pytest.raises(ValueError):
            plan.execute_inplace(np.zeros(15, dtype=np.complex128))
        with pytest.raises(ValueError):
            plan.execute_inplace(np.zeros(32, dtype=np.complex128)[::2])
