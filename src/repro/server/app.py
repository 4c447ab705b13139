"""The transform daemon: an asyncio HTTP front end over the :class:`Batcher`.

A deliberately small HTTP/1.1 server (stdlib only - ``asyncio`` streams and
hand-rolled request parsing) listening on localhost TCP and/or a unix
socket.  Endpoints:

``POST /v1/transform``
    One request frame (see :mod:`repro.server.protocol`); the row joins a
    micro-batch and the response carries its spectrum plus the per-row
    fault-tolerance summary.
``GET /healthz``
    Liveness: status (``ok``/``draining``), uptime, pid.
``GET /stats``
    The telemetry registry ``snapshot()`` as JSON.
``GET /metrics``
    Prometheus text exposition - byte-identical to
    ``repro stats --prometheus`` (both call
    :func:`repro.telemetry.prometheus_exposition`).

Connections are keep-alive and serve requests sequentially; concurrency
comes from many connections, whose requests read in the same event-loop
turn share a micro-batch.  Everything runs on the one event-loop thread,
batches included, so while a batch runs no other request (observability
endpoints and new connections too) is served.  Every observability
endpoint counts itself *before* rendering, so a scrape's body already
includes that scrape - and a quiesced process renders the same bytes from
the CLI afterwards.

Graceful drain: SIGTERM (via :meth:`TransformServer.request_shutdown`)
stops accepting connections, answers new transforms with 503, runs the
queued batches and delivers their replies, then closes lingering
keep-alive connections.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.server import protocol
from repro.server.batching import Batcher
from repro.server.protocol import ProtocolError
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace

__all__ = ["DEFAULT_PORT", "DEFAULT_MAX_PAYLOAD", "TransformServer", "ServerThread"]

DEFAULT_PORT = 8791
#: payload ceiling (bytes): 64 MiB = a 4M-point complex row
DEFAULT_MAX_PAYLOAD = 64 * 1024 * 1024
#: header lines one request may carry (the stdlib ``http.client`` cap)
MAX_HEADERS = 100

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class TransformServer:
    """The always-on transform daemon (one instance per process).

    Construct, then ``await start()`` inside a running event loop;
    ``await run()`` is the start-serve-drain convenience the CLI uses.
    All mutable state is confined to the loop thread except the telemetry
    counters (sharded).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: Optional[int] = DEFAULT_PORT,
        unix_path: Optional[str] = None,
        window: float = 0.0,
        max_batch: int = 32,
        max_payload: int = DEFAULT_MAX_PAYLOAD,
    ) -> None:
        if port is None and unix_path is None:
            raise ValueError("serve needs a TCP port, a unix socket path, or both")
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.window = max(0.0, float(window))
        self.max_batch = max(1, int(max_batch))
        self.max_payload = int(max_payload)
        #: TCP port actually bound (resolves ``port=0`` ephemeral binds)
        self.bound_port: Optional[int] = None
        self._batcher: Optional[Batcher] = None
        self._servers: List[asyncio.AbstractServer] = []
        self._writers: Set[asyncio.StreamWriter] = set()
        self._handlers: Set["asyncio.Task[None]"] = set()
        self._connections = 0
        self._draining = False
        self._finished = False
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started_at = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "TransformServer":
        """Bind the listeners and register the ``server`` telemetry surface."""

        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._started_at = time.monotonic()
        self._batcher = Batcher(self._loop, window=self.window, max_batch=self.max_batch)
        # A transform frame at n=4096 is ~64 KiB; asyncio's default 64 KiB
        # stream limit makes readexactly drain it in watermark-sized nibbles
        # (measured ~2x the per-frame streaming cost).  Size the buffer to
        # swallow a whole max-size frame in one read.
        limit = max(2**16, min(self.max_payload + protocol.MAX_HEAD_BYTES, 2**24))
        if self.unix_path is not None:
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle, path=self.unix_path, limit=limit
                )
            )
        if self.port is not None:
            server = await asyncio.start_server(
                self._handle, host=self.host, port=self.port, limit=limit
            )
            self.bound_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        _metrics.register_collector("server", self._collect)
        return self

    async def run(self, *, install_signal_handlers: bool = False) -> None:
        """Start, serve until :meth:`request_shutdown`, then drain."""

        await self.start()
        await self.serve_forever(install_signal_handlers=install_signal_handlers)

    async def serve_forever(self, *, install_signal_handlers: bool = False) -> None:
        """Serve (after :meth:`start`) until :meth:`request_shutdown`, then drain."""

        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, self.request_shutdown)
                except (NotImplementedError, RuntimeError):
                    pass  # non-unix loop or nested loop: Ctrl-C still works
        assert self._stop is not None
        await self._stop.wait()
        await self.shutdown()

    def request_shutdown(self) -> None:
        """Ask the serve loop to drain and exit (signal-handler safe)."""

        self._draining = True  # refuse new transforms immediately
        if self._stop is not None:
            self._stop.set()

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop listening, drain pending work, close the connections."""

        if self._finished:
            return
        self._finished = True
        self._draining = True
        # A retired surface must not shadow a later server's (or render
        # stale state forever in embedding processes); the guard keeps a
        # stopping server from tearing down a successor's registration.
        _metrics.unregister_collector("server", self._collect)
        if _trace.active:
            _trace.emit(
                "serve-drain",
                pending_rows=0 if self._batcher is None else self._batcher.pending_rows,
            )
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers = []
        if self._batcher is not None and drain:
            self._batcher.drain()
            # The drained batches resolved their rows' futures; one loop turn
            # lets those handlers write their replies before the close below.
            await asyncio.sleep(0)
        # Idle keep-alive connections would otherwise pin the process; the
        # drained responses above are already written.
        for writer in list(self._writers):
            writer.close()
        if self._handlers:
            _done, pending = await asyncio.wait(set(self._handlers), timeout=5.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        if self.unix_path is not None and os.path.exists(self.unix_path):
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass
        if self._stop is not None:
            self._stop.set()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def addresses(self) -> List[str]:
        """Human-readable listen addresses (for logs and ``/healthz``)."""

        listening = []
        if self.unix_path is not None:
            listening.append(f"unix:{self.unix_path}")
        if self.bound_port is not None:
            listening.append(f"http://{self.host}:{self.bound_port}")
        return listening

    def _collect(self) -> Mapping[str, Any]:
        """The ``server`` surface of ``snapshot()["caches"]`` / ``/metrics``.

        Only state that is stable on a quiesced process belongs here (no
        uptime): the surface must render identically from the serving
        process and from ``repro stats`` right after, which is what the
        byte-parity test pins.
        """

        batcher = self._batcher
        return {
            "listening": ",".join(self.addresses) or "(stopped)",
            "draining": self._draining,
            "connections": self._connections,
            "pending_rows": 0 if batcher is None else batcher.pending_rows,
            "window_ms": self.window * 1000.0,
            "max_batch": self.max_batch,
        }

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._connections += 1
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ProtocolError as exc:
                    _metrics.inc("server_errors", kind=exc.kind)
                    await self._send_error(writer, exc)
                    return
                if request is None:
                    return  # clean EOF between requests
                method, path, body = request
                if not await self._respond(method, path, body, writer):
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError, ValueError):
            # Client went away (or overflowed the head-line buffer) between
            # requests; rows it had in a live batch are unaffected.
            pass
        finally:
            self._connections -= 1
            self._writers.discard(writer)
            if task is not None:
                self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        """Parse one HTTP/1.1 request; ``None`` on clean EOF.

        Oversized bodies are rejected from the Content-Length header alone -
        the payload is never buffered - and the connection closes (the
        stream cannot be resynchronised without reading the body).  The
        head is bounded too: a request or header line longer than
        :data:`protocol.MAX_HEAD_BYTES`, or more than :data:`MAX_HEADERS`
        header lines, is refused the same way.
        """

        line = await reader.readline()
        if not line:
            return None
        _check_head_line(line)
        try:
            method, path, _version = line.decode("latin-1").split()
        except ValueError:
            raise ProtocolError("malformed HTTP request line") from None
        length = 0
        headers = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            headers += 1
            if headers > MAX_HEADERS:
                raise ProtocolError(
                    f"more than {MAX_HEADERS} header lines", status=413, kind="oversized"
                )
            _check_head_line(header)
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise ProtocolError("malformed Content-Length header") from None
        if length < 0:
            raise ProtocolError("malformed Content-Length header")
        if length > self.max_payload + protocol.MAX_HEAD_BYTES:
            raise ProtocolError(
                f"request body of {length} bytes exceeds the "
                f"{self.max_payload} byte payload limit",
                status=413,
                kind="oversized",
            )
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, body

    async def _respond(
        self, method: str, path: str, body: bytes, writer: asyncio.StreamWriter
    ) -> bool:
        """Answer one request; returns whether to keep the connection."""

        if path == "/v1/transform":
            if method != "POST":
                return await self._send_error(
                    writer,
                    ProtocolError("use POST for /v1/transform", status=405, kind="method"),
                )
            return await self._respond_transform(body, writer)
        if method != "GET":
            return await self._send_error(
                writer, ProtocolError(f"method {method} not allowed", status=405, kind="method")
            )
        if path == "/healthz":
            _metrics.inc("server_requests", endpoint="healthz")
            payload = json.dumps(
                {
                    "status": "draining" if self._draining else "ok",
                    "listening": self.addresses,
                    "uptime_s": round(time.monotonic() - self._started_at, 3),
                    "pid": os.getpid(),
                }
            ).encode("utf-8")
            return await self._send(writer, 200, "application/json", payload)
        if path == "/stats":
            _metrics.inc("server_requests", endpoint="stats")
            payload = _metrics.registry().to_json().encode("utf-8")
            return await self._send(writer, 200, "application/json", payload)
        if path == "/metrics":
            # Counted before rendering: a scrape's own request is part of
            # the exposition it receives (and of the next CLI render).
            _metrics.inc("server_requests", endpoint="metrics")
            payload = _metrics.prometheus_exposition()
            return await self._send(writer, 200, "text/plain; version=0.0.4", payload)
        return await self._send_error(
            writer, ProtocolError(f"no route for {path}", status=404, kind="not-found")
        )

    async def _respond_transform(self, body: bytes, writer: asyncio.StreamWriter) -> bool:
        _metrics.inc("server_requests", endpoint="transform")
        assert self._batcher is not None
        try:
            if self._draining:
                raise ProtocolError("server is draining", status=503, kind="draining")
            newline = body.find(b"\n", 0, protocol.MAX_HEAD_BYTES + 1)
            if newline < 0:
                raise ProtocolError("frame is missing its head line")
            head = protocol.parse_head(body[:newline])
            payload = memoryview(body)[newline + 1 :]
            if len(payload) > self.max_payload:
                raise ProtocolError(
                    f"payload of {len(payload)} bytes exceeds the "
                    f"{self.max_payload} byte limit",
                    status=413,
                    kind="oversized",
                )
            row = protocol.parse_payload(head, payload)
            meta, spectrum = await self._batcher.append_request(head, row)
        except ProtocolError as exc:
            _metrics.inc("server_errors", kind=exc.kind)
            return await self._send_error(writer, exc)
        except Exception as exc:  # plan/execute failure: report, keep serving
            _metrics.inc("server_errors", kind="internal")
            return await self._send_error(
                writer,
                ProtocolError(f"{type(exc).__name__}: {exc}", status=500, kind="internal"),
            )
        response = protocol.encode_response(meta, spectrum)
        try:
            return await self._send(writer, 200, protocol.FRAME_CONTENT_TYPE, response)
        except (ConnectionResetError, BrokenPipeError):
            _metrics.inc("server_errors", kind="disconnect")
            return False

    # ------------------------------------------------------------------
    # response writing
    # ------------------------------------------------------------------
    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        payload: bytes,
        *,
        close: bool = False,
    ) -> bool:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head)
        writer.write(payload)
        await writer.drain()
        return not close

    async def _send_error(self, writer: asyncio.StreamWriter, exc: ProtocolError) -> bool:
        body = json.dumps({"ok": False, "error": str(exc), "kind": exc.kind}).encode("utf-8")
        try:
            # Errors close the connection: after a rejected frame the stream
            # position is unreliable, and clients reconnect cheaply.
            return await self._send(writer, exc.status, "application/json", body, close=True)
        except (ConnectionResetError, BrokenPipeError):
            return False


def _check_head_line(line: bytes) -> None:
    if len(line) > protocol.MAX_HEAD_BYTES:
        raise ProtocolError(
            f"HTTP head line of {len(line)} bytes exceeds the "
            f"{protocol.MAX_HEAD_BYTES} byte limit",
            status=413,
            kind="oversized",
        )


class ServerThread:
    """A :class:`TransformServer` on a dedicated event-loop thread.

    The embedding used by the test suite and the load benchmark: the caller
    stays synchronous, the daemon runs on a daemon thread, ``stop()``
    triggers the same drain path as SIGTERM and joins.
    """

    def __init__(self, **kwargs: Any) -> None:
        self.server = TransformServer(**kwargs)
        self._thread = threading.Thread(target=self._main, name="repro-serve-loop", daemon=True)
        self._ready = threading.Event()
        self.error: Optional[BaseException] = None

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surface loop crashes to start()/stop()
            self.error = exc
            self._ready.set()

    async def _amain(self) -> None:
        try:
            await self.server.start()
        except Exception as exc:
            self.error = exc
            self._ready.set()
            return
        self._ready.set()
        assert self.server._stop is not None
        await self.server._stop.wait()
        await self.server.shutdown()

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=60.0):
            raise RuntimeError("transform server failed to start within 60s")
        if self.error is not None:
            raise RuntimeError(f"transform server failed to start: {self.error}")
        return self

    @property
    def address(self) -> Union[str, Tuple[str, int]]:
        """A :class:`repro.client.Client`-ready address for the live server."""

        if self.server.unix_path is not None:
            return f"unix:{self.server.unix_path}"
        assert self.server.bound_port is not None
        return (self.server.host, self.server.bound_port)

    def stop(self, timeout: float = 60.0) -> None:
        loop = self.server._loop
        if loop is not None and self._thread.is_alive():
            loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("transform server did not drain within the timeout")
