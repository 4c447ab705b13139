"""Byte parity of the two Prometheus rendering surfaces.

``repro stats --prometheus`` and the serve daemon's ``/metrics`` endpoint
must emit *identical bytes* for identical registry state - both are thin
wrappers over :func:`repro.telemetry.prometheus_exposition`, and this test
pins that sharing so neither can grow its own formatting.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.client import Client
from repro.server import ServerThread

REPO_SRC = Path(__file__).resolve().parent.parent.parent / "src"

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


def test_metrics_endpoint_matches_inprocess_render():
    # The scrape counts itself *before* rendering, so its body already
    # includes the scrape - and the registry is untouched afterwards, so
    # the CLI's rendering path (prometheus_exposition, same process-wide
    # registry) must reproduce the response byte for byte.
    tmp = tempfile.mkdtemp(prefix="repro-test-parity-")
    sock = os.path.join(tmp, "serve.sock")
    thread = ServerThread(port=None, unix_path=sock, window=0.0, max_batch=8)
    thread.start()
    try:
        with Client(thread.address) as client:
            x = np.linspace(-1.0, 1.0, 64) + 0j
            client.transform(x, "opt-online+mem")
            scraped = client.metrics()
            local = telemetry.prometheus_exposition()
        assert scraped == local
        assert scraped.startswith(b"# TYPE repro_")
        assert b"repro_server_requests_total" in scraped
        # Counted before rendering: the scrape itself is in its own body
        # (counters are process-wide and cumulative, so only presence -
        # not an absolute count - is stable across the test session).
        assert b'repro_server_requests_total{endpoint="metrics"}' in scraped
    finally:
        thread.stop()
        if os.path.exists(sock):
            os.unlink(sock)
        os.rmdir(tmp)


def test_cli_prometheus_exposition_format():
    # A fresh `repro stats --prometheus` process has its own registry (no
    # server traffic), but the exposition format and the always-registered
    # cache surfaces must be present and well-formed.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(
        [sys.executable, "-m", "repro.cli", "stats", "--prometheus"],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr.decode()
    body = out.stdout
    assert body.startswith(b"# TYPE repro_")
    for surface in (b"repro_plan_cache_", b"repro_program_cache_", b"repro_native_"):
        assert surface in body, surface
    assert body.endswith(b"\n")
