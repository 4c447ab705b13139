"""Tests for the command-line interface."""

import os
import tempfile

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.config import legacy_scheme_names


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["transform", "--scheme", "bogus"])

    def test_unknown_flag_suffix_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "-n", "1024", "--scheme", "opt-online+mem+t2"])
        assert exc.value.code == 2
        assert "unknown scheme 'opt-online+mem+t2'" in capsys.readouterr().err

    def test_flag_suffixed_scheme_accepted(self, capsys):
        assert main(["profile", "-n", "1024", "--scheme", "opt-online+mem+numpy"]) == 0
        assert "backend=numpy" in capsys.readouterr().out

    def test_real_flag_in_scheme_name_feeds_a_real_signal(self, capsys):
        assert main(["transform", "-n", "1024", "--scheme", "opt-online+mem+real"]) == 0
        assert "relative output error" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["transform", "-n", "256", "--scheme", "opt-offline+mem+numpy"],
            [
                "inject", "-n", "1024", "--scheme", "opt-online+mem+ip",
                "--site", "output", "--magnitude", "40", "--element", "17", "--seed", "6",
            ],
            ["profile", "-n", "1024", "--scheme", "online+mem+real"],
        ],
        ids=["transform", "inject", "profile"],
    )
    def test_flag_suffixed_names_on_every_scheme_subcommand(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["transform", "inject", "profile"])
    def test_thread_count_suffix_is_a_usage_error_everywhere(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "-n", "256", "--scheme", "fftw+t0"])
        assert exc.value.code == 2
        assert "unknown scheme 'fftw+t0'" in capsys.readouterr().err

    def test_defaults(self):
        args = build_parser().parse_args(["transform"])
        assert args.size == 4096
        assert args.scheme == "opt-online+mem"


class TestSchemesCommand:
    def test_lists_all_schemes(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "opt-online+mem" in out and "fftw" in out


class TestTransformCommand:
    def test_synthetic_transform(self, capsys):
        assert main(["transform", "-n", "1024", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "errors detected      : False" in out
        assert "relative output error" in out

    def test_tones_signal(self, capsys):
        assert main(["transform", "-n", "512", "--signal", "tones"]) == 0

    def test_file_input_and_output(self, tmp_path, capsys):
        signal = np.random.default_rng(0).standard_normal(256)
        infile = tmp_path / "signal.txt"
        outfile = tmp_path / "spectrum.txt"
        np.savetxt(infile, signal)
        assert main(["transform", "--input", str(infile), "-o", str(outfile)]) == 0
        data = np.loadtxt(outfile)
        spectrum = data[:, 0] + 1j * data[:, 1]
        assert np.allclose(spectrum, np.fft.fft(signal), atol=1e-8)

    def test_alternate_scheme(self, capsys):
        assert main(["transform", "-n", "256", "--scheme", "opt-offline"]) == 0

    @pytest.mark.parametrize("name", list(legacy_scheme_names()))
    def test_every_legacy_scheme_name(self, name, capsys):
        assert main(["transform", "-n", "256", "--seed", "2", "--scheme", name]) == 0
        out = capsys.readouterr().out
        assert "errors detected      : False" in out
        assert "relative output error" in out


class TestInjectCommand:
    def test_computational_fault_is_corrected(self, capsys):
        code = main(["inject", "-n", "1024", "--site", "stage1-compute", "--magnitude", "25", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "faults injected      : 1" in out
        assert "errors detected      : True" in out

    def test_memory_bitflip_is_corrected(self, capsys):
        code = main(
            ["inject", "-n", "1024", "--site", "intermediate", "--kind", "bit-flip", "--bit", "60", "--seed", "2"]
        )
        assert code == 0

    def test_unprotected_scheme_returns_nonzero(self, capsys):
        code = main(
            ["inject", "-n", "1024", "--scheme", "fftw", "--site", "stage1-compute", "--magnitude", "25"]
        )
        assert code == 1

    def test_targeted_index_and_element(self, capsys):
        code = main(
            ["inject", "-n", "1024", "--site", "stage2-compute", "--index", "3", "--element", "7"]
        )
        assert code == 0


class TestPredictCommand:
    def test_sequential_prediction(self, capsys):
        assert main(["predict", "-n", str(2**20)]) == 0
        out = capsys.readouterr().out
        assert "opt-online" in out and "overhead %" in out

    def test_with_parallel_ranks(self, capsys):
        assert main(["predict", "-n", str(2**24), "-p", "256"]) == 0
        out = capsys.readouterr().out
        assert "opt-FT-FFTW" in out


class TestBatchOption:
    def test_batched_transform(self, capsys):
        code = main(["transform", "-n", "1024", "--batch", "6", "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "batch rows           : 6" in out

    def test_real_batch(self, capsys):
        code = main(["transform", "-n", "1024", "--batch", "4", "--real", "--seed", "5"])
        assert code == 0

    def test_batched_inject_with_index(self, capsys):
        # the batched OUTPUT site is one visit over the whole batch, so an
        # --index spec still fires exactly once; the per-row checksums must
        # locate and correct it (exit 0 = output within tolerance)
        code = main(
            [
                "inject", "-n", "1024", "--batch", "8",
                "--site", "output", "--kind", "set-constant", "--magnitude", "99",
                "--index", "1", "--seed", "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "faults injected      : 1" in out
        assert "rows re-protected    : 1" in out


class TestInplaceOption:
    def test_inplace_transform(self, capsys):
        assert main(["transform", "-n", "1024", "--inplace", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "relative output error" in out

    def test_inplace_real_transform(self, capsys):
        assert main(["transform", "-n", "1024", "--inplace", "--real", "--seed", "3"]) == 0

    def test_inplace_batched_transform(self, capsys):
        code = main(
            ["transform", "-n", "1024", "--batch", "4", "--inplace", "--seed", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "batch rows           : 4" in out

    def test_inplace_inject_output_fault_corrected(self, capsys):
        # the overwrite path destroys the input; the carried surrogate must
        # still locate and repair the output fault (exit 0 = within tolerance)
        code = main(
            [
                "inject", "-n", "1024", "--inplace", "--site", "output",
                "--magnitude", "40", "--element", "17", "--seed", "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "faults injected      : 1" in out

    def test_inplace_batched_inject_with_index(self, capsys):
        code = main(
            [
                "inject", "-n", "1024", "--batch", "6", "--inplace",
                "--site", "output", "--magnitude", "40", "--index", "2", "--seed", "7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "faults injected      : 1" in out
        assert "rows re-protected    : 1" in out


@pytest.fixture
def daemon():
    from repro.server import ServerThread

    tmp = tempfile.mkdtemp(prefix="repro-test-cli-")
    sock = os.path.join(tmp, "serve.sock")
    thread = ServerThread(port=None, unix_path=sock, window=0.0, max_batch=32)
    thread.start()
    yield thread
    thread.stop()
    if os.path.exists(sock):
        os.unlink(sock)
    os.rmdir(tmp)


class TestSubmit:
    @pytest.mark.parametrize(
        "scheme", ["opt-online+mem", "opt-online+mem+numpy", "opt-offline+mem+fftlib+native"]
    )
    def test_real_flag_composes_with_any_scheme_name(self, daemon, scheme, capsys):
        argv = ["submit", "-a", daemon.address, "-n", "64", "--seed", "3", "--real"]
        assert main(argv + ["--scheme", scheme]) == 0
        out = capsys.readouterr().out
        assert "detected=False" in out and "uncorrectable=False" in out

    def test_unknown_scheme_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["submit", "-n", "64", "--scheme", "opt-online+mem+t2"])
        assert exc.value.code == 2
        assert "unknown scheme 'opt-online+mem+t2'" in capsys.readouterr().err


class TestServeArguments:
    """``repro serve`` refuses bad ``--warm``/``--wisdom`` input with a usage
    error (exit 2) before it binds a listener."""

    def test_warm_specs_parse_to_size_and_scheme(self):
        args = build_parser().parse_args(
            ["serve", "--warm", "1024", "--warm", "4096:opt-offline+mem+numpy"]
        )
        assert args.warm == [(1024, "opt-online+mem"), (4096, "opt-offline+mem+numpy")]

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("abc", "'abc' does not start with a positive size"),
            ("0", "'0' does not start with a positive size"),
            ("4096:bogus", "unknown scheme 'bogus'"),
        ],
    )
    def test_bad_warm_spec_is_a_usage_error(self, spec, message, tmp_path, capsys):
        sock = tmp_path / "serve.sock"
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--unix", str(sock), "--warm", spec])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --warm" in err and message in err
        assert not sock.exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "No such file"),
            ("{not json", "Expecting property name"),
            ('{"16": "x"}', "wisdom key '16' needs at least 'n:direction'"),
            ('{"0:forward": "x"}', "size '0' is not a positive integer"),
            ('{"16:sideways": "x"}', "unknown direction 'sideways'"),
            ("[]", "a wisdom snapshot is a JSON object"),
        ],
        ids=["missing", "malformed", "short-key", "size", "direction", "not-a-dict"],
    )
    def test_bad_wisdom_is_a_usage_error(self, content, message, tmp_path, capsys):
        path = tmp_path / "wisdom.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        sock = tmp_path / "serve.sock"
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--unix", str(sock), "--wisdom", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --wisdom" in err and message in err
        assert not sock.exists()
