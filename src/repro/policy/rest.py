"""RESTful web interface of the Policy Service.

The paper deploys the service in an Apache Tomcat container behind a
RESTful interface exchanging XML/JSON.  We serve JSON over HTTP/1.1 on
localhost with the Python standard library (no network access needed):
one ``asyncio`` loop, run in a background thread so ``start()`` /
``stop()`` are ordinary blocking calls, plus one worker thread that
evaluates policy.

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
Each connection is one ``asyncio.Protocol`` object driven by
``data_received`` callbacks — no task, stream or future per request —
so a request costs the loop two turns: the one that reads it and the
one the worker's result wakes.  The loop thread does the HTTP work
only; every request's blocking service call is queued to **one** policy
worker thread, which serializes requests into the single-threaded rule
engine (no lock, no thread per connection), and a connection has at
most one request there at a time.  A long evaluation therefore never
stalls timeouts, 503s or accepts.  Two flow-control rules bound what a
connection may hold: while the client is not reading its responses
(``pause_writing``) no further pipelined request is consumed, and once
unparsed input exceeds ``max_request_bytes`` + 64 KiB the socket is not
read until some is consumed, so TCP stops a sender that outruns policy
(CPU per request by thread: ``docs/engine.md``, "REST frontend").

Every request carries a **request id**, the client's ``X-Repro-Request-Id``
or a server-generated ``req-N``: echoed in the response header and every
error body, and recorded in the request's access-log entry and span, both
from one :class:`~repro.policy.service.Envelope` per request
(``docs/observability.md``, "REST request observability").
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import NamedTuple, Optional

from repro.obs.hooks import Hooks
from repro.policy.controller import (
    PolicyController,
    PolicyRequestError,
    PolicyRouteError,
)
from repro.policy.service import Envelope, PolicyService

__all__ = ["PolicyRestServer"]

#: default cap on request bodies — far above any sane batch, far below
#: what would let one client exhaust server memory
DEFAULT_MAX_REQUEST_BYTES = 1024 * 1024

#: request line + headers must fit in this many bytes
_MAX_HEAD_BYTES = 16 * 1024

#: input a connection buffers beyond what one request may need: no head
#: end within it closes the connection; past it (on top of
#: ``max_request_bytes``) the socket is not read until some is consumed
_READ_AHEAD = 64 * 1024

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


class _Head(NamedTuple):
    """One parsed request head; the body (if any) is still on the wire."""

    method: str
    path: str
    headers: dict


class _ServerState:
    """In-flight request accounting and request ids."""

    def __init__(self, max_request_bytes: int):
        self.max_request_bytes = int(max_request_bytes)
        #: server-generated request ids, drawn on the loop thread only
        self.request_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._in_flight = 0
        self._stopping = False
        self._idle = threading.Event()
        self._idle.set()

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
    listening socket, aborts the open connections and closes the loop;
    returns whether the drain completed.

    ``hooks`` (the service's when omitted) gives the tracer that spans
    each request — bind a REST tracer to wall time, e.g.
    ``Tracer(clock=time.monotonic)`` — and the access log, a private
    1,024-entry one when it has none.
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
        hooks: Optional[Hooks] = None,
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
        hooks = hooks if hooks is not None else service.hooks
        if hooks.access_log is None:
            hooks = replace(hooks, access_log=deque(maxlen=1024))
        self.hooks = hooks
        self._state = _ServerState(max_request_bytes)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server = None
        self._thread: Optional[threading.Thread] = None
        self._address: Optional[tuple] = None
        self._connections: set[_Connection] = set()  # loop thread only
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
        return list(self.hooks.access_log)

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
                    loop.create_server(lambda: _Connection(self), self._host, self._port)
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
            for connection in list(self._connections):
                connection.abort()
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


def _parse_head(raw: bytearray) -> Optional[_Head]:
    """Request line + headers up to the blank line; ``None`` when the
    framing is unparseable and the connection cannot continue."""
    if len(raw) > _MAX_HEAD_BYTES:
        return None
    lines = raw.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        return None
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            return None
        headers[name.strip().lower()] = value.strip()
    return _Head(parts[0], parts[1], headers)


class _Connection(asyncio.Protocol):
    """One client connection, driven by ``data_received`` callbacks.

    Input accumulates in ``buffer``; :meth:`_advance` consumes it one
    request at a time — head, body, worker, response — and stops where
    the connection must wait: for more bytes (under the idle clock for a
    head, the read clock for a body), for the policy worker
    (:meth:`_evaluated` goes on from there) or for the client to read
    its responses (``resume_writing`` does).
    """

    def __init__(self, server: PolicyRestServer):
        self.server = server
        self.loop = server._loop
        self.state = server._state
        self.buffer = bytearray()
        self.timer: Optional[asyncio.TimerHandle] = None
        #: the open request, from its parsed head (``_open`` sets what
        #: else it carries) until ``_finish`` closes its books
        self.head: Optional[_Head] = None
        self.length = 0  # body bytes it declared
        self.entered = False  # counted in flight (a 503 never is)
        self.at_worker = False
        self.write_paused = self.read_paused = self.eof = False

    # ---------------------------------------------------------- transport
    def connection_made(self, transport) -> None:
        self.transport = transport
        self.host = (transport.get_extra_info("peername") or ("?",))[0]
        self.server._connections.add(self)
        self._advance()

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self._advance()

    def eof_received(self) -> bool:
        # A half-closed client is still owed an answer to every request
        # it sent whole; _advance closes once the buffer holds no more.
        self.eof = True
        self._advance()
        return True

    def pause_writing(self) -> None:
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        self._advance()

    def connection_lost(self, exc) -> None:
        self.server._connections.discard(self)
        self._set_timer()
        if not self.at_worker:  # else the result to come closes the books
            self._drop()

    def abort(self) -> None:
        """``stop()`` is done waiting: close the books on a request still
        open (a late result from the worker is dropped) and cut the
        connection."""
        self._drop()
        self.transport.abort()

    def _drop(self) -> None:
        if self.head is not None:
            self._finish(0)
            self._leave()

    # ------------------------------------------------------ state machine
    def _set_timer(self, delay: Optional[float] = None, callback=None) -> None:
        """Replace the connection's one clock (no ``delay``: just stop it)."""
        if self.timer is not None:
            self.timer.cancel()
        self.timer = None if delay is None else self.loop.call_later(delay, callback)

    def _advance(self) -> None:
        """Consume buffered input until it runs dry or the connection
        must wait for the worker or for the client to read."""
        transport, buffer, server = self.transport, self.buffer, self.server
        while not (self.at_worker or self.write_paused or transport.is_closing()):
            if self.head is None:
                end = buffer.find(b"\r\n\r\n") + 4
                if end < 4:
                    if self.eof or len(buffer) > _READ_AHEAD:
                        transport.close()
                    elif self.timer is None:
                        # One budget covers waiting for a request *and*
                        # the trickle-fed head itself: a slow-loris
                        # client that drips header bytes never escapes it.
                        self._set_timer(server.idle_timeout, transport.close)
                    break
                self._set_timer()
                head = _parse_head(buffer[:end])
                del buffer[:end]
                if head is None:
                    transport.close()
                    break
                self._open(head)
                continue
            if len(buffer) < self.length:
                if self.eof:
                    transport.close()  # died mid-body; nothing to answer
                elif self.timer is None:
                    self._set_timer(server.read_timeout, self._body_timed_out)
                break
            self._set_timer()
            body = bytes(buffer[: self.length])
            del buffer[: self.length]
            self.at_worker = True
            server._worker.submit(self._evaluate, self.head.method, self.head.path, body)
        # A client that pipelines faster than policy evaluates is stopped
        # by TCP, not buffered without end.
        over = len(buffer) > self.state.max_request_bytes + _READ_AHEAD
        if over != self.read_paused:
            self.read_paused = over
            (transport.pause_reading if over else transport.resume_reading)()

    def _open(self, head: _Head) -> None:
        """Open the books on a request and size up its body, refusing an
        oversized one *before* the read: the declared size alone
        disqualifies it, so the body bytes never enter memory."""
        state = self.state
        self.head, self.length, self.keep_alive = head, 0, True
        self.rid = head.headers.get("x-repro-request-id") or f"req-{next(state.request_ids)}"
        self.call = Envelope(self.server.hooks.tracer, (
            "rest", f"{head.method} {head.path}", "rest",
            {"request_id": self.rid, "host": self.host},
        ))
        self.entered = state.enter()
        if not self.entered:
            return self._refuse(503, "server is shutting down")
        try:
            length = int(head.headers.get("content-length", "0"))
        except ValueError:
            return self._unreadable(400, "Content-Length header must be an integer")
        if length < 0:
            return self._unreadable(400, "Content-Length header must be >= 0")
        if length > state.max_request_bytes:
            return self._unreadable(
                413,
                f"request body of {length} bytes exceeds the "
                f"{state.max_request_bytes}-byte limit",
            )
        self.length = length

    def _body_timed_out(self) -> None:
        self.timer = None
        self._unreadable(408, "timed out reading request body")
        self._advance()

    def _unreadable(self, status: int, message: str) -> None:
        """The declared body was not (all) read.  GET ignores its body,
        so it is evaluated with none; either way the stream position
        cannot be trusted any more: answer, then close."""
        if self.head.method == "GET":
            self.keep_alive, self.length = False, 0
        else:
            self._refuse(status, message)

    def _evaluate(self, method: str, path: str, body: bytes) -> None:
        """On the policy worker thread: the one call into the service."""
        result = error = None
        try:
            result = self.server.controller.dispatch(method, path, body)
        except Exception as exc:  # mapped to a response by _evaluated
            error = exc
        try:
            self.loop.call_soon_threadsafe(self._evaluated, result, error)
        except RuntimeError:
            pass  # loop closed under a hung evaluation: stop() closed the books

    def _evaluated(self, result, error: Optional[Exception]) -> None:
        self.at_worker = False
        if self.head is None:
            return  # aborted by stop() meanwhile
        try:
            if error is not None:
                raise error
            if isinstance(result, str):
                self._send(200, result.encode(), "text/plain; version=0.0.4; charset=utf-8")
            else:
                self._reply(200, result)
        except PolicyRouteError as exc:
            # The request was read whole: the connection stays usable.
            allow = f"Allow: {', '.join(exc.allow)}\r\n" if exc.allow else ""
            self._reply(exc.status, {"error": str(exc), "request_id": self.rid}, allow)
        except PolicyRequestError as exc:
            self._refuse(400, str(exc))
        except Exception as exc:  # don't drop the connection on a bug
            self._refuse(500, f"internal error: {exc}")
        self._advance()

    # ---------------------------------------------------------- responses
    def _finish(self, code: int) -> None:
        head, self.head = self.head, None
        call = self.call
        call.closing["status"] = code
        call.close()
        self.server.hooks.access_log.append({
            "request_id": self.rid,
            "host": self.host,
            "method": head.method,
            "path": head.path,
            "status": code,
            "latency_s": call.elapsed,
        })

    def _leave(self) -> None:
        if self.entered:
            self.entered = False
            self.state.leave()

    def _send(self, code: int, body: bytes, content_type: str, extra: str = "") -> None:
        # Finalize the access-log entry and span before any response
        # byte goes out: a client that has observed the response must
        # find its entry in the log (error clients unblock on the
        # status line alone, not the body).
        self._finish(code)
        resp = (
            f"HTTP/1.1 {code} {_REASONS.get(code, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"X-Repro-Request-Id: {self.rid}\r\n"
            f"{extra}"
            f"Connection: {'keep-alive' if self.keep_alive else 'close'}\r\n"
            "\r\n"
        )
        if not self.transport.is_closing():  # else the client is gone
            self.transport.write(resp.encode("latin-1") + body)
        self._leave()
        if not self.keep_alive:
            self.transport.close()

    def _reply(self, code: int, doc: dict, extra: str = "") -> None:
        self._send(code, json.dumps(doc).encode(), "application/json", extra)

    def _refuse(self, code: int, message: str) -> None:
        """Answer an error after which the stream position cannot be
        trusted (or the server is going away): close the connection."""
        self.keep_alive = False
        self._reply(code, {"error": message, "request_id": self.rid})
