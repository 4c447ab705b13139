"""End-to-end integration tests across subsystems.

These tie together the FFT substrate, the ABFT schemes, the fault injector,
the campaign driver and the parallel simulation in the same way the
benchmark harnesses do, at sizes small enough for the unit-test suite.
"""

import os
import subprocess
import sys

import numpy as np

import repro
from repro import FaultInjector, FaultSite, FTConfig
from repro.core.config import legacy_scheme_names
from repro.analysis.metrics import error_distribution_row, minimal_detectable_magnitude
from repro.analysis.roundoff import measure_stage1_residuals
from repro.faults.campaign import CoverageCampaign
from repro.faults.models import FaultKind, FaultSpec
from repro.parallel import ParallelFFT, ParallelFTFFT
from repro.perfmodel import offline_scheme_ops, online_scheme_ops


class TestSequentialPipeline:
    def test_every_scheme_handles_the_same_random_fault(self, source):
        """One fixed fault, all schemes: ABFT schemes detect, baseline does not."""

        n = 2**12
        x = source.uniform_complex(n)
        reference = np.fft.fft(x)
        for name in legacy_scheme_names():
            injector = FaultInjector().arm_computational(
                FaultSite.STAGE2_COMPUTE, index=4, element=11, magnitude=3.0
            )
            result = FTConfig.from_name(name).build(n).execute(x, injector)
            if name == "fftw":
                assert not result.report.detected
            else:
                assert result.report.detected
                err = np.max(np.abs(result.output - reference)) / np.max(np.abs(reference))
                assert err < 1e-9

    def test_signal_processing_round_trip_under_faults(self, source):
        """Forward + inverse protected transforms recover the original signal
        even with a fault in each direction."""

        n = 4096
        signal = source.signal_with_tones(n, tones=[17, 389], noise=0.01)
        ft = repro.plan(n)
        forward = ft.execute(
            signal, FaultInjector().arm_computational(FaultSite.STAGE1_COMPUTE, magnitude=9.0)
        )
        back = ft.inverse(
            forward.output, FaultInjector().arm_memory(FaultSite.INTERMEDIATE, magnitude=2.0)
        )
        assert np.allclose(back.output, signal, atol=1e-8)

    def test_detection_limit_gap_between_online_and_offline(self, source):
        """Table 5's qualitative claim at unit-test scale."""

        n = 2**12
        x = source.uniform_complex(n)
        offline = FTConfig.from_name("opt-offline+mem").build(n)
        online = FTConfig.from_name("opt-online+mem").build(n)

        def detects(scheme, magnitude):
            spec = FaultSpec(
                site=FaultSite.INPUT, element=5, kind=FaultKind.ADD_CONSTANT, magnitude=magnitude
            )
            return scheme.execute(x, FaultInjector(specs=[spec])).report.detected

        offline_limit = minimal_detectable_magnitude(lambda m: detects(offline, m)).minimal_detected
        online_limit = minimal_detectable_magnitude(lambda m: detects(online, m)).minimal_detected
        assert online_limit < offline_limit

    def test_roundoff_study_consistent_with_scheme_thresholds(self, source):
        """No fault-free verification in a full scheme run may exceed the
        threshold that the Table 4 study reports as eta."""

        n = 2**12
        study = measure_stage1_residuals(n, runs=2, seed=5)
        x = source.uniform_complex(n)
        result = FTConfig.from_name("opt-online+mem").build(n).execute(x)
        assert not result.report.detected
        assert study.max_residual <= study.estimated_eta


class TestCampaignPipeline:
    def test_bitflip_campaign_orders_schemes_correctly(self):
        """Miniature Table 6: online >= offline >= unprotected coverage."""

        n = 1024
        trials = 24
        rows = {}
        for label, scheme_name in [("none", "fftw"), ("offline", "opt-offline+mem"), ("online", "opt-online+mem")]:
            scheme = FTConfig.from_name(scheme_name).build(n)

            campaign = CoverageCampaign(
                make_input=lambda t, rng: rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n),
                run_trial=lambda x, inj, scheme=scheme: (
                    lambda r: (
                        r.output,
                        r.report.detected,
                        r.report.corrected,
                        r.report.has_uncorrectable,
                    )
                )(scheme.execute(x, inj)),
                reference=lambda x: np.fft.fft(x),
                make_faults=lambda t, rng: [
                    FaultSpec(
                        site=[
                            FaultSite.STAGE1_INPUT,
                            FaultSite.INTERMEDIATE,
                            FaultSite.OUTPUT,
                        ][t % 3],
                        kind=FaultKind.BIT_FLIP,
                        bit=int(rng.integers(54, 63)),
                        element=int(rng.integers(0, n)),
                    )
                ],
                seed=99,
            )
            result = campaign.run(trials)
            rows[label] = error_distribution_row(
                [o.relative_error for o in result.outcomes],
                uncorrected=[o.uncorrected for o in result.outcomes],
                bounds=(1e-8,),
            )
        assert rows["online"]["> 1e-08"] <= rows["offline"]["> 1e-08"] <= rows["none"]["> 1e-08"]
        assert rows["none"]["> 1e-08"] > 0.9  # unprotected runs are essentially always wrong


class TestParallelPipeline:
    def test_parallel_matches_sequential_protected_result(self, source):
        n, p = 4096, 8
        x = source.uniform_complex(n)
        sequential = FTConfig.from_name("opt-online+mem").build(n).execute(x).output
        parallel = ParallelFTFFT(n, p).execute(x).output
        assert np.allclose(sequential, parallel, atol=1e-8)

    def test_parallel_overhead_shrinks_with_overlap(self):
        n, p = 2**20, 16
        base = ParallelFFT(n, p, overlap_twiddle=True).predict_timeline().elapsed
        ft = ParallelFTFFT(n, p, overlap=False).predict_timeline().elapsed
        opt_ft = ParallelFTFFT(n, p, overlap=True).predict_timeline().elapsed
        assert base < opt_ft < ft

    def test_model_counts_are_consistent_with_scheme_ordering(self):
        n = 2**22
        assert online_scheme_ops(n).fault_free < offline_scheme_ops(n).fault_free
        assert (
            online_scheme_ops(n, memory_ft=True).with_error
            < offline_scheme_ops(n, memory_ft=True).with_error
        )


class TestColdStart:
    def test_import_does_not_load_scipy(self):
        """The package needs numpy only; scipy costs ~1 s and ~70 MB to import."""

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        probe = "import sys, repro; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"
