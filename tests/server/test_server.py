"""Integration tests for the transform daemon.

Each test talks to a live :class:`repro.server.app.ServerThread` over a
unix socket through the blocking :class:`repro.client.Client` - the same
path the CLI and the load benchmark use.  The load-bearing assertions:

* served spectra are *bitwise* equal to a direct in-process
  ``FTPlan.execute_many`` call, per row, regardless of which other
  requests coalesced into the same micro-batch;
* live fault injection through the server detects and corrects, and the
  corrected spectrum still matches the clean reference;
* a client disconnecting mid-batch does not poison its batchmates;
* oversized and malformed requests (heads included) are rejected with the
  right status and machine-readable kind, and the connection state stays
  sane;
* batches run inline on the event loop with no timer: a lone request never
  waits for an idle peer, and other requests wait for the running batch.
"""

import json
import os
import select
import tempfile
import threading
import time

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.client import Client, ServerError
from repro.server import ServerThread, batching, protocol

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


def _rows(n: int, real: bool, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if real:
        return rng.uniform(-1.0, 1.0, n)
    return rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)


def _reference(n: int, config: str, x: np.ndarray) -> np.ndarray:
    return repro.plan(n, config).execute_many(x[np.newaxis]).output[0]


def _send_raw(client: Client, head: bytes):
    """Send raw request bytes on ``client``'s connection; ``(status, body)``."""

    client._connect()
    client._sock.sendall(head)
    return client._read_response()


@pytest.fixture(scope="module")
def server():
    tmp = tempfile.mkdtemp(prefix="repro-test-serve-")
    sock = os.path.join(tmp, "serve.sock")
    thread = ServerThread(port=None, unix_path=sock, window=0.0, max_batch=32)
    thread.start()
    yield thread
    thread.stop()
    if os.path.exists(sock):
        os.unlink(sock)
    os.rmdir(tmp)


class TestTransform:
    def test_roundtrip_bitwise_vs_direct(self, server):
        x = _rows(256, real=False, seed=1)
        with Client(server.address) as client:
            reply = client.transform(x, "opt-online+mem")
        assert np.array_equal(reply.output, _reference(256, "opt-online+mem", x))
        assert reply.meta["ok"] is True
        assert reply.meta["n"] == 256
        assert reply.meta["bins"] == 256
        # The batched path labels its reports "<scheme>[batch]"
        assert reply.scheme.startswith("opt-online+mem")
        assert not reply.detected and not reply.uncorrectable

    def test_real_config_roundtrip(self, server):
        x = _rows(256, real=True, seed=2)
        with Client(server.address) as client:
            reply = client.transform(x, "opt-online+mem+real")
        expected = _reference(256, "opt-online+mem+real", x)
        assert np.array_equal(reply.output, expected)
        assert reply.meta["bins"] == expected.shape[-1]

    def test_concurrent_mixed_groups_bitwise(self, server):
        # Several (n, config) group keys in flight at once: every row's
        # spectrum must be bitwise what a direct execute_many of that row
        # alone produces, whatever batch it coalesced into - and batching
        # must actually have happened (the whole point of the window).
        cases = [
            (256, "opt-online+mem"),
            (256, "opt-online+mem+numpy"),
            (512, "opt-online+mem"),
            (256, "opt-online+mem+real"),
        ]
        for n, config in cases:  # warm the plan cache outside the flood
            repro.plan(n, config)
        rounds = 6
        errors = []
        batches_before = sum(
            v for (name, _), v in telemetry.counters().items() if name == "server_batches"
        )

        def worker(slot: int, n: int, config: str) -> None:
            try:
                with Client(server.address) as client:
                    for round_index in range(rounds):
                        x = _rows(n, "real" in config, seed=100 * slot + round_index)
                        reply = client.transform(x, config)
                        expected = _reference(n, config, x)
                        assert np.array_equal(reply.output, expected), (
                            slot, round_index, n, config,
                        )
                        assert reply.batch_size >= 1
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot, n, config))
            for slot, (n, config) in enumerate(cases * 2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]
        batches = sum(
            v for (name, _), v in telemetry.counters().items() if name == "server_batches"
        ) - batches_before
        total = len(threads) * rounds
        assert 0 < batches <= total

    def test_live_fault_injection(self, server):
        x = _rows(256, real=False, seed=3)
        clean = _reference(256, "opt-online+mem", x)
        with Client(server.address) as client:
            reply = client.transform(
                x,
                "opt-online+mem",
                inject={"site": "stage1-compute", "kind": "add-constant", "magnitude": 50.0},
            )
        assert reply.detected
        assert reply.corrected
        assert not reply.uncorrectable
        assert reply.report["faults_fired"] == 1
        assert reply.batch_size == 1  # injection bypasses batching
        assert np.allclose(reply.output, clean)

    def test_zero_window_arms_no_timer(self, server, monkeypatch):
        # A second connection sits open and idle; the lone request must not
        # wait for it, and must not even arm a timer doing so.
        x = _rows(256, real=False, seed=9)
        loop = server.server._loop

        def no_timer(*args, **kwargs):
            raise AssertionError("the zero-window batcher armed a timer")

        with Client(server.address) as idle, Client(server.address) as busy:
            assert idle.healthz()["status"] == "ok"  # open from here on
            with monkeypatch.context() as patch:
                patch.setattr(loop, "call_later", no_timer)
                reply = busy.transform(x, "opt-online+mem")
        assert reply.batch_size == 1
        assert np.array_equal(reply.output, _reference(256, "opt-online+mem", x))


class TestHttpSurface:
    def test_malformed_frame(self, server):
        with Client(server.address) as client:
            status, payload = client._request(
                "POST", "/v1/transform", b"not json\n\x00\x01",
                content_type="application/x-repro-frame",
            )
        assert status == 400

    def test_unknown_route(self, server):
        with Client(server.address) as client:
            status, _ = client._request("GET", "/nope")
        assert status == 404

    def test_wrong_method(self, server):
        with Client(server.address) as client:
            status, _ = client._request("GET", "/v1/transform")
        assert status == 405

    @pytest.mark.parametrize(
        "head",
        [
            b"GET /healthz HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 101 + b"\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * protocol.MAX_HEAD_BYTES + b"\r\n\r\n",
            b"GET /" + b"a" * protocol.MAX_HEAD_BYTES + b" HTTP/1.1\r\n\r\n",
        ],
        ids=["too-many-header-lines", "long-header-line", "long-request-line"],
    )
    def test_oversized_head_refused(self, server, head):
        with Client(server.address) as client:
            status, payload = _send_raw(client, head)
        assert status == 413
        assert json.loads(payload)["kind"] == "oversized"
        # The refusal closed that connection; a fresh one is served.
        with Client(server.address) as client:
            assert client.healthz()["status"] == "ok"

    def test_head_at_the_header_cap_served(self, server):
        head = b"GET /healthz HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 100 + b"\r\n"
        with Client(server.address) as client:
            status, payload = _send_raw(client, head)
        assert status == 200
        assert json.loads(payload)["status"] == "ok"

    def test_healthz(self, server):
        with Client(server.address) as client:
            health = client.healthz()
        assert health["status"] == "ok"
        assert any(entry.startswith("unix:") for entry in health["listening"])
        assert health["pid"] == os.getpid()

    def test_stats_surface(self, server):
        with Client(server.address) as client:
            stats = client.stats()
        assert "counters" in stats
        assert "server" in stats["caches"]
        surface = stats["caches"]["server"]
        assert surface["max_batch"] == 32
        assert surface["draining"] is False


class TestFaultTolerance:
    # Runs after TestHttpSurface: these tests start their own in-process
    # servers, which take over (and on shutdown retire) the process-wide
    # "server" telemetry surface the module fixture's server registered.

    def test_disconnect_mid_batch(self):
        # A positive window holds the batch open long enough to guarantee
        # both rows share it; the first client walks away before the flush.
        tmp = tempfile.mkdtemp(prefix="repro-test-serve-")
        sock = os.path.join(tmp, "serve.sock")
        thread = ServerThread(port=None, unix_path=sock, window=0.25, max_batch=32)
        thread.start()
        try:
            x = _rows(256, real=False, seed=4)
            deserter = Client(thread.address)
            survivor = Client(thread.address)
            try:
                deserter.submit(x, "opt-online+mem")
                survivor.submit(x, "opt-online+mem")
                deserter.close()
                reply = survivor.collect()
            finally:
                deserter.close()
                survivor.close()
            assert np.array_equal(reply.output, _reference(256, "opt-online+mem", x))
            assert reply.batch_size == 2
        finally:
            thread.stop()
            if os.path.exists(sock):
                os.unlink(sock)
            os.rmdir(tmp)

    def test_native_alias_shares_the_batch_group(self):
        # "+native" names the default kernels, so both spellings land in
        # one (n, config) group and coalesce into one micro-batch.
        tmp = tempfile.mkdtemp(prefix="repro-test-serve-")
        sock = os.path.join(tmp, "serve.sock")
        thread = ServerThread(port=None, unix_path=sock, window=0.25, max_batch=32)
        thread.start()
        try:
            xs = [_rows(256, real=False, seed=s) for s in (7, 8)]
            with Client(thread.address) as first, Client(thread.address) as second:
                first.submit(xs[0], "opt-online+mem")
                second.submit(xs[1], "opt-online+mem+native")
                replies = [first.collect(), second.collect()]
            for x, reply in zip(xs, replies):
                assert reply.batch_size == 2
                assert np.array_equal(reply.output, _reference(256, "opt-online+mem", x))
        finally:
            thread.stop()
            if os.path.exists(sock):
                os.unlink(sock)
            os.rmdir(tmp)

    def test_healthz_waits_for_the_running_batch(self, monkeypatch):
        # Batches run on the event loop, so a health check sent while one
        # runs is answered once it finishes - the documented trade-off.
        started, release = threading.Event(), threading.Event()
        real_plan = batching.plan

        class Gated:
            def __init__(self, inner):
                self.inner = inner

            def execute_many(self, rows):
                started.set()
                assert release.wait(60.0)
                return self.inner.execute_many(rows)

        monkeypatch.setattr(batching, "plan", lambda n, config: Gated(real_plan(n, config)))
        tmp = tempfile.mkdtemp(prefix="repro-test-serve-")
        sock = os.path.join(tmp, "serve.sock")
        thread = ServerThread(port=None, unix_path=sock, window=0.0, max_batch=32)
        thread.start()
        try:
            x = _rows(256, real=False, seed=10)
            with Client(thread.address) as busy, Client(thread.address) as watcher:
                busy.submit(x, "opt-online+mem")
                assert started.wait(60.0)
                watcher._connect()
                watcher._sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                unanswered, _, _ = select.select([watcher._sock], [], [], 0.2)
                assert not unanswered  # the loop is inside the batch
                release.set()
                reply = busy.collect()
                status, payload = watcher._read_response()
            assert status == 200
            assert json.loads(payload)["status"] == "ok"
            assert reply.batch_size == 1
            assert np.array_equal(reply.output, _reference(256, "opt-online+mem", x))
        finally:
            release.set()
            thread.stop()
            if os.path.exists(sock):
                os.unlink(sock)
            os.rmdir(tmp)

    def test_drain_answers_queued_rows(self):
        # A long window holds both rows queued; the drain runs them and
        # their replies reach the clients before the connections close.
        tmp = tempfile.mkdtemp(prefix="repro-test-serve-")
        sock = os.path.join(tmp, "serve.sock")
        thread = ServerThread(port=None, unix_path=sock, window=60.0, max_batch=32)
        thread.start()
        try:
            xs = [_rows(256, real=False, seed=s) for s in (11, 12)]
            with Client(thread.address) as first, Client(thread.address) as second:
                first.submit(xs[0], "opt-online+mem")
                second.submit(xs[1], "opt-online+mem")
                deadline = time.monotonic() + 60.0
                with Client(thread.address) as probe:
                    while probe.stats()["caches"]["server"]["pending_rows"] < 2:
                        assert time.monotonic() < deadline, "rows never queued"
                        time.sleep(0.01)
                thread.stop()
                replies = [first.collect(), second.collect()]
            for x, reply in zip(xs, replies):
                assert reply.batch_size == 2
                assert np.array_equal(reply.output, _reference(256, "opt-online+mem", x))
        finally:
            thread.stop()
            if os.path.exists(sock):
                os.unlink(sock)
            os.rmdir(tmp)

    def test_oversized_payload_rejected(self):
        tmp = tempfile.mkdtemp(prefix="repro-test-serve-")
        sock = os.path.join(tmp, "serve.sock")
        thread = ServerThread(
            port=None, unix_path=sock, window=0.0, max_batch=32, max_payload=1024
        )
        thread.start()
        try:
            with Client(thread.address) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.transform(_rows(4096, real=False, seed=5))
                assert excinfo.value.status == 413
                assert excinfo.value.kind == "oversized"
                # The connection was closed by the rejection; the retry
                # logic reconnects and a sane request still succeeds.
                reply = client.transform(_rows(64, real=False, seed=6))
                assert reply.meta["ok"] is True
        finally:
            thread.stop()
            if os.path.exists(sock):
                os.unlink(sock)
            os.rmdir(tmp)

