"""The REST frontend at the socket: exact response bytes, half-closed
and vanished clients, pipelined bursts against a busy worker, and
``stop()`` under a hung evaluation — the real-I/O edges no simulated
client reaches."""

import json
import re
import socket
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro.policy import PolicyConfig, PolicyRestServer, PolicyService

from .test_rest import _connect, _read_response, _request_bytes, _transfer_payload
from .test_rest_timeouts import _recv_all


def _server(**kw):
    service = PolicyService(PolicyConfig(policy="greedy", default_streams=4, max_streams=50))
    return PolicyRestServer(service, **kw)


def _wait_in_flight(server, n, timeout=5.0):
    deadline = time.monotonic() + timeout
    while server._state._in_flight != n and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server._state._in_flight == n


class _HeldWorker:
    """Holds the policy worker inside ``controller.status`` until released."""

    def __init__(self, server):
        self.release = threading.Event()
        original = server.controller.status
        server.controller.status = lambda: (self.release.wait(30), original())[1]


# -- (a) wire bytes -----------------------------------------------------------
STAGING = json.dumps({"lfn": "a", "url": "gsiftp://obelix/scratch/a"}).encode()
SUBMIT = json.dumps(_transfer_payload("wf", 0)).encode()


def _post(path: str, rid: str, body: bytes, length=None) -> bytes:
    length = len(body) if length is None else length
    return (
        f"POST {path} HTTP/1.1\r\nHost: x\r\nX-Repro-Request-Id: {rid}\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode() + body


def _get(path: str, rid: str, extra: str = "") -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: x\r\nX-Repro-Request-Id: {rid}\r\n{extra}\r\n".encode()


#: name -> (request bytes, the whole response) — the responses were
#: recorded from the coroutine-and-streams frontend this one replaced
#: (commit 18b2dc7).  Where the document depends on clocks or memory
#: (``status``, ``metrics``) the body is left out and ``<N>`` stands for
#: its Content-Length.
WIRE = {
    "submit": (
        _post("/policy/transfers", "wire-1", SUBMIT),
        b'HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 297\r\n'
        b'X-Repro-Request-Id: wire-1\r\nConnection: keep-alive\r\n\r\n'
        b'{"workflow": "wf", "job": "job0", "advice": [{"tid": 1, "lfn": "wf_f0", '
        b'"src_url": "gsiftp://fg-vm/data/wf_f0", '
        b'"dst_url": "gsiftp://obelix/scratch/wf_f0", "nbytes": 1000.0, "action": "transfer", '
        b'"streams": 4, "group_id": 1, "priority": 0, "reason": "", "wait_for": null, '
        b'"lease_deadline": null}]}',
    ),
    "staging": (
        _post("/policy/staging", "wire-2", STAGING),
        b'HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 68\r\n'
        b'X-Repro-Request-Id: wire-2\r\nConnection: keep-alive\r\n\r\n'
        b'{"lfn": "a", "url": "gsiftp://obelix/scratch/a", "state": "unknown"}',
    ),
    "metrics": (
        _get("/policy/metrics", "wire-3"),
        b'HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n'
        b'Content-Length: <N>\r\nX-Repro-Request-Id: wire-3\r\nConnection: keep-alive\r\n\r\n',
    ),
    "bad_json": (
        _post("/policy/transfers", "wire-4", b"{broken"),
        b'HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nContent-Length: 131\r\n'
        b'X-Repro-Request-Id: wire-4\r\nConnection: close\r\n\r\n'
        b'{"error": "invalid JSON body: Expecting property name enclosed in double quotes: '
        b'line 1 column 2 (char 1)", "request_id": "wire-4"}',
    ),
    "length_not_integer": (
        _post("/policy/transfers", "wire-5", b"", length="banana"),
        b'HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nContent-Length: 77\r\n'
        b'X-Repro-Request-Id: wire-5\r\nConnection: close\r\n\r\n'
        b'{"error": "Content-Length header must be an integer", "request_id": "wire-5"}',
    ),
    "length_negative": (
        _post("/policy/transfers", "wire-6", b"", length=-5),
        b'HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nContent-Length: 71\r\n'
        b'X-Repro-Request-Id: wire-6\r\nConnection: close\r\n\r\n'
        b'{"error": "Content-Length header must be >= 0", "request_id": "wire-6"}',
    ),
    "get_with_bad_length": (
        _get("/policy/status", "wire-7", "Content-Length: banana\r\n"),
        b'HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: <N>\r\n'
        b'X-Repro-Request-Id: wire-7\r\nConnection: close\r\n\r\n',
    ),
    "not_found": (
        _get("/policy/nope", "wire-8"),
        b'HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 68\r\n'
        b'X-Repro-Request-Id: wire-8\r\nConnection: keep-alive\r\n\r\n'
        b'{"error": "no such endpoint \'/policy/nope\'", "request_id": "wire-8"}',
    ),
    "wrong_verb": (
        b"PUT /policy/tenants HTTP/1.1\r\nHost: x\r\nX-Repro-Request-Id: wire-9\r\n"
        b"Content-Length: 2\r\n\r\n{}",
        b'HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\n'
        b'Content-Length: 80\r\nX-Repro-Request-Id: wire-9\r\nAllow: GET, POST\r\n'
        b'Connection: keep-alive\r\n\r\n'
        b'{"error": "method PUT not allowed on \'/policy/tenants\'", "request_id": "wire-9"}',
    ),
    "too_large": (
        _post("/policy/transfers", "wire-10", b"", length=99999999),
        b'HTTP/1.1 413 Payload Too Large\r\nContent-Type: application/json\r\n'
        b'Content-Length: 99\r\nX-Repro-Request-Id: wire-10\r\nConnection: close\r\n\r\n'
        b'{"error": "request body of 99999999 bytes exceeds the 1048576-byte limit", '
        b'"request_id": "wire-10"}',
    ),
    "stalled_body": (
        _post("/policy/staging", "wire-11", b'{"lfn": "par', length=200),
        b'HTTP/1.1 408 Request Timeout\r\nContent-Type: application/json\r\n'
        b'Content-Length: 68\r\nX-Repro-Request-Id: wire-11\r\nConnection: close\r\n\r\n'
        b'{"error": "timed out reading request body", "request_id": "wire-11"}',
    ),
}


def _wire_exchange(server, request: bytes, masked: bool) -> bytes:
    """One request on its own connection; the whole response, ``masked``
    as the ``WIRE`` literals are where it varies from run to run."""
    with _connect(server) as sock:
        sock.sendall(request)
        fp = sock.makefile("rb")
        head = b""
        while not head.endswith(b"\r\n\r\n"):
            line = fp.readline()
            assert line, f"connection closed inside the response head: {head!r}"
            head += line
        body = fp.read(int(re.search(rb"Content-Length: (\d+)", head).group(1)))
        if b"Connection: close" in head:
            assert fp.read() == b""  # and then the server did close
    if masked:
        return re.sub(rb"Content-Length: \d+", b"Content-Length: <N>", head)
    return head + body


def test_response_bytes_are_those_of_the_streams_frontend():
    with _server(read_timeout=0.3) as server:
        got = {
            name: _wire_exchange(server, request, masked=b"<N>" in response)
            for name, (request, response) in WIRE.items()
        }
    assert got == {name: response for name, (_, response) in WIRE.items()}


# -- (b) (c) half-closed and vanished clients ---------------------------------
def test_half_closed_client_still_reads_its_whole_response():
    with _server() as server, _connect(server) as sock:
        sock.sendall(
            _request_bytes("POST", "/policy/transfers", _transfer_payload("wf", 0))
            + _request_bytes("GET", "/policy/status")
        )
        sock.shutdown(socket.SHUT_WR)
        fp = sock.makefile("rb")
        status, _, doc = _read_response(fp)
        assert (status, doc["advice"][0]["action"]) == (200, "transfer")
        # ... and the answer to what it pipelined before the half-close
        status, _, doc = _read_response(fp)
        assert (status, doc["memory"]["TransferFact"]) == (200, 1)
        assert fp.read() == b""  # nothing more can come: the server closes


def test_half_close_while_the_worker_is_busy_is_answered():
    with _server() as server, _connect(server) as sock:
        held = _HeldWorker(server)
        sock.sendall(_request_bytes("GET", "/policy/status"))
        sock.shutdown(socket.SHUT_WR)
        _wait_in_flight(server, 1)
        time.sleep(0.1)  # the EOF reaches the loop with the request at the worker
        held.release.set()
        status, _, doc = _read_response(sock.makefile("rb"))
        assert status == 200 and "policy" in doc


def test_eof_mid_body_answers_nothing_and_closes_the_books():
    with _server() as server:
        with _connect(server) as sock:
            sock.sendall(_post("/policy/staging", "cut-1", b'{"lfn": "par', length=200))
            _wait_in_flight(server, 1)
            sock.shutdown(socket.SHUT_WR)
            assert _recv_all(sock) == b""
        _wait_in_flight(server, 0)
        assert [(e["request_id"], e["status"]) for e in server.access_log] == [("cut-1", 0)]


# -- (d) a pipelined burst against a busy worker ------------------------------
def test_burst_behind_a_held_worker_is_answered_in_order_once_released():
    n = 200
    with _server() as server, _connect(server) as sock:
        held = _HeldWorker(server)
        sock.sendall(_request_bytes("GET", "/policy/status", rid="burst-0") + b"".join(
            _request_bytes("POST", "/policy/transfers", _transfer_payload("wf", i),
                           rid=f"burst-{i}")
            for i in range(1, n)
        ))
        _wait_in_flight(server, 1)
        time.sleep(0.1)
        assert server._state._in_flight == 1  # one request per connection at the worker
        held.release.set()
        fp = sock.makefile("rb")
        for i in range(n):
            status, headers, _ = _read_response(fp)
            assert (status, headers["x-repro-request-id"]) == (200, f"burst-{i}")
    assert [e["request_id"] for e in server.access_log] == [f"burst-{i}" for i in range(n)]


def test_sender_that_never_reads_is_stopped_by_tcp_while_the_worker_is_held():
    chunk = _request_bytes("POST", "/policy/transfers", _transfer_payload("wf", 1)) * 256
    with _server() as server, _connect(server, timeout=2) as sock:
        held = _HeldWorker(server)
        sock.sendall(_request_bytes("GET", "/policy/status"))
        _wait_in_flight(server, 1)
        pushed = 0
        try:
            while pushed < 16 * 1024 * 1024:
                sock.sendall(chunk)
                pushed += len(chunk)
        except TimeoutError:
            pass  # the server stopped reading and the socket buffers filled
        assert pushed < 16 * 1024 * 1024
        held.release.set()


def test_a_client_that_stops_reading_pauses_the_writes_until_it_reads(monkeypatch):
    """Pipelined responses that outgrow the transport's write buffer pause
    the connection (``pause_writing``) instead of piling up in memory;
    once the client reads, ``resume_writing`` answers the rest in order."""
    from repro.policy.rest import _Connection

    pauses = []
    pause = _Connection.pause_writing
    monkeypatch.setattr(_Connection, "pause_writing",
                        lambda self: (pauses.append(True), pause(self)))
    n = 400
    with _server() as server, socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.settimeout(10)
        url = urlsplit(server.url)
        sock.connect((url.hostname, url.port))
        sock.sendall(b"".join(_get("/policy/metrics", f"slow-{i}") for i in range(n)))
        deadline = time.monotonic() + 5
        while not pauses and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pauses
        fp = sock.makefile("rb")
        for i in range(n):
            assert fp.readline().split()[1] == b"200"
            headers = dict(
                line.decode().lower().split(": ", 1)
                for line in iter(lambda: fp.readline().rstrip(b"\r\n"), b"")
            )
            assert headers["x-repro-request-id"] == f"slow-{i}"
            fp.read(int(headers["content-length"]))


# -- (e) stop() with a request hung at the worker -----------------------------
def test_stop_with_a_request_hung_at_the_worker():
    server = _server(drain_timeout=0.2).start()
    loop_errors = []
    server._loop.set_exception_handler(lambda loop, context: loop_errors.append(context))
    held = _HeldWorker(server)
    with _connect(server, timeout=5) as sock:
        sock.sendall(_request_bytes("GET", "/policy/status", rid="hung-1"))
        _wait_in_flight(server, 1)
        assert server.stop() is False  # the hung request outlived the drain window
        with pytest.raises(OSError):
            if not sock.recv(1):  # aborted (reset), or at the least closed unanswered
                raise ConnectionAbortedError
    assert server._state._in_flight == 0
    assert [(e["request_id"], e["status"]) for e in server.access_log] == [("hung-1", 0)]
    held.release.set()  # the late result has no loop and no connection to go to
    server._worker.shutdown(wait=True)
    assert loop_errors == []
