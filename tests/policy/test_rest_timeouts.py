"""Slow-loris hardening: idle and body-read timeouts.

A client that opens a connection and never sends (or trickles) a
request must not pin a handler; a client that sends a complete head but
stalls the declared body gets 408 and a closed connection.
"""

import json
import socket
import time
import urllib.request

import pytest

from repro.policy import PolicyConfig, PolicyRestServer, PolicyService


def _service():
    return PolicyService(
        PolicyConfig(policy="greedy", default_streams=4, max_streams=50))


def _make(**kw):
    return PolicyRestServer(_service(), **kw)


def _hostport(url):
    host, port = url.rsplit("//", 1)[1].rsplit(":", 1)
    return host, int(port)


def _recv_all(sock, timeout=5.0):
    sock.settimeout(timeout)
    chunks = []
    try:
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            chunks.append(chunk)
    except TimeoutError:
        pass
    return b"".join(chunks)


STALLED_HEAD = b"POST /policy/staging HTTP/1.1\r\nHost: x\r\n"
FULL_HEAD = (
    b"POST /policy/staging HTTP/1.1\r\nHost: x\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: 200\r\n\r\n"
)


def test_idle_connection_is_closed_silently():
    with _make(idle_timeout=0.5, read_timeout=0.5) as server:
        sock = socket.create_connection(_hostport(server.url))
        t0 = time.monotonic()
        data = _recv_all(sock, timeout=5.0)
        elapsed = time.monotonic() - t0
        sock.close()
        # Closed (EOF), no response bytes, and promptly.
        assert data == b""
        assert elapsed < 4.0


def test_trickled_request_head_is_closed_without_response():
    with _make(idle_timeout=0.5, read_timeout=0.5) as server:
        sock = socket.create_connection(_hostport(server.url))
        sock.sendall(STALLED_HEAD)  # head never finishes
        data = _recv_all(sock, timeout=5.0)
        sock.close()
        assert data == b""


def test_stalled_body_gets_408_and_close():
    with _make(idle_timeout=5.0, read_timeout=0.5) as server:
        sock = socket.create_connection(_hostport(server.url))
        sock.sendall(FULL_HEAD + b'{"lfn": "par')  # 200 declared, stalls
        data = _recv_all(sock, timeout=5.0)
        sock.close()
        status = data.split(b"\r\n", 1)[0]
        assert b"408" in status, data
        assert b"timed out" in data.lower()
        # 408 closed the connection: recv saw EOF, not a hang.
        assert data.endswith(b"}")


def test_prompt_requests_are_unaffected():
    with _make(idle_timeout=1.0, read_timeout=0.5) as server:
        body = json.dumps(
            {"lfn": "f", "url": "gsiftp://obelix/scratch/f"}).encode()
        req = urllib.request.Request(
            server.url + "/policy/staging", data=body,
            headers={"Content-Type": "application/json"})
        doc = json.load(urllib.request.urlopen(req))
        assert doc["state"] in {"unknown", "staged", "in_progress"}


def test_timeouts_can_be_disabled():
    with _make(idle_timeout=None, read_timeout=None) as server:
        sock = socket.create_connection(_hostport(server.url))
        # Trickle the head slower than any default timeout tick.
        sock.sendall(b"GET /policy/status")
        time.sleep(0.3)
        sock.sendall(b" HTTP/1.1\r\nHost: x\r\n\r\n")
        data = _recv_all(sock, timeout=5.0)
        sock.close()
        assert data.split(b"\r\n", 1)[0].endswith(b"200 OK")


def test_timeout_values_validated():
    with pytest.raises(ValueError):
        _make(idle_timeout=0.0)
    with pytest.raises(ValueError):
        _make(read_timeout=-1.0)
