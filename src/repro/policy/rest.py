"""RESTful web interface of the Policy Service.

The paper deploys the service in an Apache Tomcat container behind a
RESTful interface exchanging XML/JSON.  We serve JSON over HTTP/1.1 on
localhost with the Python standard library (no network access needed):
one ``asyncio.start_server`` loop, run in a background thread so
``start()`` / ``stop()`` are ordinary blocking calls, plus one worker
thread that evaluates policy.

Endpoints
---------
Declared once, in :data:`repro.policy.controller.ROUTES`; a test keeps
this list equal to it.

==========  ===================================  ===========================
POST        /policy/transfers                    submit transfer batch
POST        /policy/transfers/complete           report done/failed ids
GET         /policy/transfers/<tid:int>          one transfer's state
GET         /policy/explain/<tid:int>            decision-provenance record
POST        /policy/staging                      staged-state of (lfn, url)
POST        /policy/cleanups                     submit cleanup batch
POST        /policy/cleanups/complete            report finished cleanups
POST        /policy/staged/reconcile             adopt degraded-mode staging
POST        /policy/priorities                   register job priorities
POST        /policy/workflows/unregister         drop a workflow's interest
POST        /policy/denials                      ban a host (access control)
POST        /policy/denials/remove               lift a host ban
POST        /policy/quotas                       set a workflow's byte quota
POST        /policy/tenants                      register/replace a tenant
POST        /policy/tenants/remove               unregister a tenant
POST        /policy/tenants/bind                 bind a workflow to a tenant
GET         /policy/tenants                      tenant census + ledgers
GET         /policy/catalog                      staged-data catalog census
GET         /policy/catalog/replicas/<lfn:str>   one dataset's replicas
POST        /policy/catalog/sites                set/lift a site byte budget
POST        /policy/catalog/pins                 pin/unpin a replica by url
GET         /policy/status                       service snapshot
GET         /policy/metrics                      Prometheus text exposition
==========  ===================================  ===========================

Malformed payloads return 400 with ``{"error": ...}``; unknown paths and
records 404; a known path under the wrong verb 405 with an ``Allow``
header; bodies that stall past ``read_timeout`` mid-read 408; bodies
larger than ``max_request_bytes`` 413 (without reading the body);
internal bugs 500; requests arriving while the server drains for
shutdown 503.  After a 400, 408, 413, 500 or 503 the connection is
closed.  Connections that idle past ``idle_timeout`` between requests —
or trickle a request head slower than it — are closed without a
response, so a slow-loris client cannot pin the server.

Connections are **keep-alive and pipelined**: a client may write many
requests back-to-back without waiting; they are parsed sequentially and
answered in order, so a burst of advice batches pays one round trip.
The loop thread does the HTTP work only; every request's blocking
service call is queued to **one** policy worker thread, which serializes
requests into the single-threaded rule engine (no lock, no thread per
connection).  A long evaluation therefore never stalls timeouts, 503s
or accepts, and throughput does not depend on whether the kernel puts
client and server on one CPU or two (inline evaluation measured 600 or
750 op/s on ``rest_loopback`` depending on that placement alone).

Observability
-------------
Every request carries a **request id**: the client's ``X-Repro-Request-Id``
header when present, a server-generated ``req-N`` otherwise.  The id is
echoed in the response header, included in every error body, recorded in
the per-request access log (host, method, path, status, wall-clock
latency; see :attr:`PolicyRestServer.access_log`), and attached to the
span emitted for the request — **including** 400/413/500/503 responses —
when the server is built with a tracer.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple, Optional

from repro.obs.tracer import as_tracer
from repro.policy.controller import (
    PolicyController,
    PolicyRequestError,
    PolicyRouteError,
)
from repro.policy.service import PolicyService

__all__ = ["PolicyRestServer"]

#: default cap on request bodies — far above any sane batch, far below
#: what would let one client exhaust server memory
DEFAULT_MAX_REQUEST_BYTES = 1024 * 1024

#: request line + headers must fit in this many bytes
_MAX_HEAD_BYTES = 16 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _BodyRefused(Exception):
    """The declared body was not (all) read — bad framing 400, stalled
    408, over the cap 413: answer, then close the connection."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _BadRequestFraming(Exception):
    """Unparseable request head — the connection cannot continue."""


class _Head(NamedTuple):
    """One parsed request head; the body (if any) is still on the wire."""

    method: str
    path: str
    headers: dict


class _ServerState:
    """In-flight request accounting, request ids, and the access log."""

    def __init__(self, max_request_bytes: int, tracer=None, access_log_cap: int = 1024):
        self.max_request_bytes = int(max_request_bytes)
        self.tracer = as_tracer(tracer)
        self.access_log: list[dict] = []
        self._access_log_cap = int(access_log_cap)
        self._request_seq = 0
        self._lock = threading.Lock()
        self._in_flight = 0
        self._stopping = False
        self._idle = threading.Event()
        self._idle.set()

    def next_request_id(self) -> str:
        with self._lock:
            self._request_seq += 1
            return f"req-{self._request_seq}"

    def log_request(self, entry: dict) -> None:
        with self._lock:
            self.access_log.append(entry)
            overflow = len(self.access_log) - self._access_log_cap
            if overflow > 0:
                del self.access_log[:overflow]

    def enter(self) -> bool:
        with self._lock:
            if self._stopping:
                return False
            self._in_flight += 1
            self._idle.clear()
            return True

    def leave(self) -> None:
        with self._lock:
            self._in_flight -= 1
            if self._in_flight == 0:
                self._idle.set()

    def begin_stop(self) -> None:
        with self._lock:
            self._stopping = True
            if self._in_flight == 0:
                self._idle.set()

    def drain(self, timeout: float) -> bool:
        """Wait until in-flight requests finish; False on timeout."""
        return self._idle.wait(timeout)


class PolicyRestServer:
    """Asyncio HTTP frontend around a :class:`PolicyService`.

    Usage::

        server = PolicyRestServer(service)      # port 0 = pick a free port
        server.start()
        ... HTTPPolicyClient(server.url) ...
        drained = server.stop()

    Request bodies above ``max_request_bytes`` are refused with 413
    before being read; connections idle (or trickling a request head)
    past ``idle_timeout`` seconds are closed without a response;
    declared bodies that stall past ``read_timeout`` draw a 408 and a
    closed connection (either timeout may be ``None`` to disable it).
    :meth:`stop` first refuses new requests with 503, waits up to
    ``drain_timeout`` seconds for in-flight ones, then closes the
    listening socket and the loop; returns whether the drain completed.
    """

    def __init__(
        self,
        service: PolicyService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        drain_timeout: float = 5.0,
        idle_timeout: Optional[float] = 60.0,
        read_timeout: Optional[float] = 10.0,
        tracer=None,
    ):
        if max_request_bytes < 1:
            raise ValueError("max_request_bytes must be >= 1")
        if drain_timeout < 0:
            raise ValueError("drain_timeout must be >= 0")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be > 0 (or None to disable)")
        if read_timeout is not None and read_timeout <= 0:
            raise ValueError("read_timeout must be > 0 (or None to disable)")
        self.service = service
        self.controller = PolicyController(service)
        self.drain_timeout = drain_timeout
        #: seconds a connection may sit without *starting* a request
        #: before the server closes it (slow-loris hardening)
        self.idle_timeout = idle_timeout
        #: seconds a client gets to deliver a request body it declared;
        #: a stall answers 408 and closes the connection
        self.read_timeout = read_timeout
        self._host = host
        self._port = port
        # A tracer given here should be wall-clock bound (e.g.
        # ``Tracer(clock=time.monotonic)``); defaults to the service's.
        self._state = _ServerState(
            max_request_bytes, tracer=tracer if tracer is not None else service.tracer
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server = None
        self._thread: Optional[threading.Thread] = None
        self._address: Optional[tuple] = None
        #: the one thread policy is evaluated on, made by ``start()``
        self._worker: ThreadPoolExecutor

    # ------------------------------------------------------------ lifecycle
    @property
    def url(self) -> str:
        if self._address is None:
            raise RuntimeError("server not started")
        host, port = self._address[:2]
        return f"http://{host}:{port}"

    @property
    def access_log(self) -> list[dict]:
        """One entry per handled request (request id, host, method, path,
        status, wall-clock latency), oldest first, bounded."""
        return list(self._state.access_log)

    def start(self) -> "PolicyRestServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        started = threading.Event()
        failure: list[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                self._server = loop.run_until_complete(
                    asyncio.start_server(self._serve_connection, self._host, self._port)
                )
                self._address = self._server.sockets[0].getsockname()
            except BaseException as exc:  # surface bind errors to start()
                failure.append(exc)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                # Cancellation of the connection tasks completes here.
                pending = asyncio.all_tasks(loop)
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._worker = ThreadPoolExecutor(1, thread_name_prefix="policy")
        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        started.wait()
        if failure:
            self._thread.join(timeout=5)
            self._thread = None
            raise failure[0]
        return self

    def stop(self) -> bool:
        if self._thread is None:
            return True
        self._state.begin_stop()
        drained = self._state.drain(self.drain_timeout)
        loop = self._loop

        def shutdown() -> None:
            if self._server is not None:
                self._server.close()
            for task in asyncio.all_tasks(loop):
                task.cancel()
            loop.call_soon(loop.stop)

        loop.call_soon_threadsafe(shutdown)
        self._thread.join(timeout=5)
        # A hung evaluation outlives a failed drain on the worker thread;
        # don't make it also stall the caller.
        self._worker.shutdown(wait=False, cancel_futures=True)
        self._thread = None
        self._loop = None
        self._server = None
        return drained

    def __enter__(self) -> "PolicyRestServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------ connection
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername") or ("?",)
        host = peer[0]
        try:
            while True:
                try:
                    # One budget covers waiting for a request *and* the
                    # trickle-fed head itself: a slow-loris client that
                    # drips header bytes never escapes the clock.
                    head = await asyncio.wait_for(
                        self._read_head(reader), self.idle_timeout
                    )
                except asyncio.TimeoutError:
                    break  # idle or stalled-in-head connection: just close
                if head is None:
                    break  # clean EOF between requests
                keep_alive = await self._handle_request(head, reader, host, writer)
                await writer.drain()
                if not keep_alive:
                    break
        except (
            _BadRequestFraming,
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _read_head(reader: asyncio.StreamReader) -> Optional[_Head]:
        """Parse one request line + headers; leaves the body unread."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean close between pipelined requests
            raise _BadRequestFraming() from exc
        except asyncio.LimitOverrunError as exc:
            raise _BadRequestFraming() from exc
        if len(head) > _MAX_HEAD_BYTES:
            raise _BadRequestFraming()
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise _BadRequestFraming()
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _BadRequestFraming()
            headers[name.strip().lower()] = value.strip()
        return _Head(parts[0], parts[1], headers)

    # -------------------------------------------------------------- handling
    async def _handle_request(
        self,
        head: _Head,
        reader: asyncio.StreamReader,
        host: str,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Handle one request; returns whether to keep the connection."""
        state = self._state
        rid = head.headers.get("x-repro-request-id") or state.next_request_id()
        t0 = time.perf_counter()
        tracer = state.tracer
        span = None
        if tracer.enabled:
            span = tracer.begin(
                "rest", f"{head.method} {head.path}", track="rest",
                request_id=rid, host=host,
            )
        status = 0
        keep_alive = True
        finished = False

        def finish(code: int) -> None:
            nonlocal finished
            if finished:
                return
            finished = True
            state.log_request({
                "request_id": rid,
                "host": host,
                "method": head.method,
                "path": head.path,
                "status": code,
                "latency_s": time.perf_counter() - t0,
            })
            tracer.end(span, status=code)

        def send(code: int, body: bytes, content_type: str, extra: str = "") -> None:
            nonlocal status
            status = code
            # Finalize the access-log entry and span before any response
            # byte goes out: a client that has observed the response must
            # find its entry in the log (error clients unblock on the
            # status line alone, not the body).
            finish(code)
            resp = (
                f"HTTP/1.1 {code} {_REASONS.get(code, 'OK')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"X-Repro-Request-Id: {rid}\r\n"
                f"{extra}"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                "\r\n"
            )
            writer.write(resp.encode("latin-1") + body)

        def reply(code: int, doc: dict, extra: str = "") -> None:
            send(code, json.dumps(doc).encode(), "application/json", extra)

        def refuse(code: int, message: str) -> None:
            """Answer an error after which the stream position cannot be
            trusted (or the server is going away): close the connection."""
            nonlocal keep_alive
            keep_alive = False
            reply(code, {"error": message, "request_id": rid})

        if not state.enter():
            refuse(503, "server is shutting down")
            return keep_alive
        try:
            try:
                body = await self._read_body(head, reader)
            except _BodyRefused:
                # GET ignores its body, but a well-framed one must be
                # drained to keep the connection reusable; when the
                # framing cannot be trusted, answer and then close.
                if head.method != "GET":
                    raise
                keep_alive, body = False, b""
            result = await asyncio.get_running_loop().run_in_executor(
                self._worker, self.controller.dispatch, head.method, head.path, body
            )
            if isinstance(result, str):
                send(200, result.encode(), "text/plain; version=0.0.4; charset=utf-8")
            else:
                reply(200, result)
        except PolicyRouteError as exc:
            # The request was read whole: the connection stays usable.
            allow = f"Allow: {', '.join(exc.allow)}\r\n" if exc.allow else ""
            reply(exc.status, {"error": str(exc), "request_id": rid}, allow)
        except _BodyRefused as exc:
            refuse(exc.status, str(exc))
        except PolicyRequestError as exc:
            refuse(400, str(exc))
        except asyncio.IncompleteReadError:
            raise  # connection died mid-body; nothing to answer
        except Exception as exc:  # don't drop the connection on a bug
            refuse(500, f"internal error: {exc}")
        finally:
            state.leave()
            finish(status)  # backstop if no reply was sent
        return keep_alive

    async def _read_body(self, head: _Head, reader: asyncio.StreamReader) -> bytes:
        """Read the request body, refusing oversized ones *before* the
        read: the declared size alone disqualifies the request, so the
        body bytes never enter memory."""
        try:
            length = int(head.headers.get("content-length", "0"))
        except ValueError as exc:
            raise _BodyRefused(400, "Content-Length header must be an integer") from exc
        if length < 0:
            raise _BodyRefused(400, "Content-Length header must be >= 0")
        if length > self._state.max_request_bytes:
            raise _BodyRefused(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self._state.max_request_bytes}-byte limit",
            )
        if not length:
            return b""
        try:
            return await asyncio.wait_for(
                reader.readexactly(length), self.read_timeout
            )
        except asyncio.TimeoutError as exc:
            raise _BodyRefused(408, "timed out reading request body") from exc
