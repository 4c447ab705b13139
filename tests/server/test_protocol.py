"""Unit tests for the transform-server wire protocol.

Every rejection path of :mod:`repro.server.protocol` must raise
:class:`ProtocolError` with the right HTTP status and machine-readable
``kind`` - clients and the ``server_errors`` counter key on them - and the
encode/parse pairs must round-trip payload bytes exactly (the protocol is
raw little-endian arrays, so a single shifted byte corrupts spectra
silently if framing drifts).
"""

import json

import numpy as np
import pytest

from repro.server import protocol
from repro.server.protocol import ProtocolError, RequestHead


class TestParseHead:
    def test_minimal_head(self):
        head = protocol.parse_head(b'{"n": 256}')
        assert head.n == 256
        assert head.config == protocol.DEFAULT_CONFIG
        assert head.real is False
        assert head.inject is None
        assert head.payload_bytes == 256 * 16

    def test_config_canonical_name_is_group_key(self):
        # The grammar is suffix-order-strict (``+real`` before the backend
        # flag), so the canonical spelling round-trips unchanged - the
        # (n, config) micro-batch group key is exactly the canonical name.
        head = protocol.parse_head(b'{"n": 64, "config": "opt-online+mem+real+numpy"}')
        assert head.config == "opt-online+mem+real+numpy"
        assert head.real
        assert head.payload_bytes == 64 * 8  # float64 rows for +real

    def test_backend_flags_parse(self):
        head = protocol.parse_head(b'{"n": 64, "config": "opt-online+mem+numpy"}')
        assert head.config == "opt-online+mem+numpy"

    def test_retired_native_flag_canonicalizes_to_the_default_kernels(self):
        head = protocol.parse_head(b'{"n": 64, "config": "opt-online+mem+native"}')
        assert head.config == "opt-online+mem"
        assert protocol.canonical_config("opt-online+mem+real+numpy+native") == (
            "opt-online+mem+real+numpy",
            True,
        )

    @pytest.mark.parametrize(
        "line",
        [
            b"not json",
            b"[1, 2]",
            b'{"n": 256, "bogus": 1}',
            b'{"n": "256"}',
            b'{"n": true}',
            b'{"n": 1}',
            b'{"n": 256, "config": 7}',
            b'{"n": 256, "config": "no-such-scheme"}',
            # thread-count suffixes are not part of the grammar
            b'{"n": 256, "config": "opt-online+mem+t2"}',
            b'{"n": 256, "config": "opt-online+mem+real+t0"}',
        ],
    )
    def test_malformed_heads_rejected(self, line):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.parse_head(line)
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "malformed"

    def test_oversized_head_rejected(self):
        line = b'{"n": 256, "config": "' + b"x" * protocol.MAX_HEAD_BYTES + b'"}'
        with pytest.raises(ProtocolError) as excinfo:
            protocol.parse_head(line)
        assert excinfo.value.status == 413
        assert excinfo.value.kind == "oversized"


class TestValidateInject:
    def test_defaults_filled_in(self):
        spec = protocol.validate_inject({})
        assert spec["site"] and spec["kind"]
        assert spec["magnitude"] == 10.0
        assert spec["bit"] is None and spec["index"] is None and spec["element"] is None

    @pytest.mark.parametrize(
        "spec",
        [
            "not-a-dict",
            {"bogus": 1},
            {"site": "no-such-site"},
            {"kind": "no-such-kind"},
            {"magnitude": "big"},
            {"magnitude": True},
            {"bit": 1.5},
            {"index": True},
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ProtocolError):
            protocol.validate_inject(spec)


class TestPayloads:
    def test_complex_round_trip(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        frame = protocol.encode_request(x, "opt-online+mem")
        line, _, payload = frame.partition(b"\n")
        head = protocol.parse_head(line)
        row = protocol.parse_payload(head, payload)
        assert row.dtype == np.complex128
        assert np.array_equal(row, x)

    def test_real_round_trip(self):
        x = np.linspace(-1.0, 1.0, 64)
        frame = protocol.encode_request(x, "opt-online+mem+real")
        line, _, payload = frame.partition(b"\n")
        head = protocol.parse_head(line)
        assert head.real
        row = protocol.parse_payload(head, payload)
        assert row.dtype == np.float64
        assert np.array_equal(row, x)

    def test_wrong_payload_length_rejected(self):
        head = RequestHead(n=64, config="opt-online+mem", real=False)
        with pytest.raises(ProtocolError) as excinfo:
            protocol.parse_payload(head, b"\x00" * 8)
        assert excinfo.value.status == 400

    def test_multirow_request_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.encode_request(np.zeros((2, 64), dtype=np.complex128))


class TestResponses:
    def test_round_trip(self):
        spectrum = np.arange(8, dtype=np.complex128)
        meta = {"ok": True, "bins": 8, "scheme": "opt-online+mem"}
        meta_out, spectrum_out = protocol.parse_response(
            protocol.encode_response(meta, spectrum)
        )
        assert meta_out == json.loads(json.dumps(meta))
        assert np.array_equal(spectrum_out, spectrum)

    def test_headless_body_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.parse_response(b"no newline anywhere")

    def test_bins_mismatch_rejected(self):
        body = protocol.encode_response({"ok": True, "bins": 4}, np.zeros(8, np.complex128))
        with pytest.raises(ProtocolError):
            protocol.parse_response(body)

    def test_metadata_only_response(self):
        meta, spectrum = protocol.parse_response(b'{"ok": false}\n')
        assert meta == {"ok": False}
        assert spectrum is None
