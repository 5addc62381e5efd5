"""Integration tests: real HTTP against the RESTful web interface."""

import json
import re
import socket
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.policy import PolicyConfig, PolicyService, rest
from repro.policy.client import HTTPPolicyClient
from repro.policy.controller import ROUTES
from repro.policy.rest import PolicyRestServer


@pytest.fixture
def server():
    service = PolicyService(PolicyConfig(policy="greedy", default_streams=4, max_streams=50))
    with PolicyRestServer(service) as srv:
        yield srv


@pytest.fixture
def client(server):
    return HTTPPolicyClient(server.url)


def transfers_for(*lfns):
    return [
        {
            "lfn": lfn,
            "src_url": f"gsiftp://fg-vm/data/{lfn}",
            "dst_url": f"gsiftp://obelix/scratch/{lfn}",
            "nbytes": 1000,
        }
        for lfn in lfns
    ]


def test_full_transfer_lifecycle_over_http(client):
    advice = client.submit_transfers("wf1", "j1", transfers_for("a", "b"))
    assert [a.action for a in advice] == ["transfer", "transfer"]
    assert all(a.streams == 4 for a in advice)

    assert client.transfer_state(advice[0].tid) == "in_progress"
    client.complete_transfers(done=[a.tid for a in advice])
    assert client.transfer_state(advice[0].tid) == "done"
    assert client.staging_state("a", "gsiftp://obelix/scratch/a") == "staged"

    # A second workflow sees the staged file and is told to skip.
    again = client.submit_transfers("wf2", "j2", transfers_for("a"))
    assert again[0].action == "skip"


def test_cleanup_lifecycle_over_http(client):
    advice = client.submit_transfers("wf1", "j1", transfers_for("f"))
    client.complete_transfers(done=[advice[0].tid])
    cleanups = client.submit_cleanups("wf1", "c", [("f", "gsiftp://obelix/scratch/f")])
    assert cleanups[0].action == "delete"
    ack = client.complete_cleanups([cleanups[0].cid])
    assert ack["acknowledged"] == 1


def test_priorities_and_status_over_http(client):
    client.register_priorities("wf1", {"stage_in_x": 9})
    status = client.status()
    assert status["policy"] == "greedy"
    assert status["memory"].get("JobPriorityFact") == 1
    client.unregister_workflow("wf1")
    assert "JobPriorityFact" not in client.status()["memory"]


def test_malformed_request_is_http_400(server):
    request = urllib.request.Request(
        f"{server.url}/policy/transfers",
        data=json.dumps({"job": "j"}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=5)
    assert excinfo.value.code == 400
    assert "workflow" in json.loads(excinfo.value.read())["error"]


def test_invalid_json_is_http_400(server):
    request = urllib.request.Request(
        f"{server.url}/policy/transfers",
        data=b"{broken",
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=5)
    assert excinfo.value.code == 400


def test_unknown_endpoint_is_http_404(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(f"{server.url}/policy/nope", timeout=5)
    assert excinfo.value.code == 404
    assert excinfo.value.headers["X-Repro-Request-Id"] == json.loads(
        excinfo.value.read())["request_id"]


@pytest.mark.parametrize("method, path, allow", [
    ("GET", "/policy/transfers", "POST"),
    ("POST", "/policy/status", "GET"),
    ("PUT", "/policy/tenants", "GET, POST"),
])
def test_known_path_under_wrong_verb_is_http_405(server, method, path, allow):
    request = urllib.request.Request(
        f"{server.url}{path}", data=b"{}" if method != "GET" else None, method=method)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=5)
    assert excinfo.value.code == 405
    assert excinfo.value.headers["Allow"] == allow
    assert "request_id" in json.loads(excinfo.value.read())


def test_module_docstring_lists_exactly_the_routes():
    listed = re.findall(r"^(GET|POST)\s+(/policy/\S+)", rest.__doc__, re.MULTILINE)
    assert listed == [(r.verb, r.path) for r in ROUTES]


def test_unknown_transfer_id_state(client):
    assert client.transfer_state(424242) == "unknown"


def test_server_restart_guard():
    service = PolicyService(PolicyConfig())
    server = PolicyRestServer(service).start()
    try:
        with pytest.raises(RuntimeError):
            server.start()
    finally:
        server.stop()
    server.stop()  # idempotent


def test_concurrent_http_clients_are_serialized_safely(server):
    """Multiple threads hammer the service; the internal lock keeps the
    single-threaded rule engine consistent (every request answered, all
    transfers eventually completed)."""
    import threading

    client = HTTPPolicyClient(server.url)
    errors = []
    approved_tids = []
    lock = threading.Lock()

    def worker(worker_id):
        try:
            for i in range(10):
                advice = client.submit_transfers(
                    f"wf{worker_id}",
                    f"job{worker_id}_{i}",
                    transfers_for(f"w{worker_id}_f{i}"),
                )
                with lock:
                    approved_tids.extend(
                        a.tid for a in advice if a.action == "transfer"
                    )
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors
    assert len(approved_tids) == 40
    assert len(set(approved_tids)) == 40  # unique ids under concurrency
    client.complete_transfers(done=approved_tids)
    status = client.status()
    assert status["memory"].get("TransferFact") is None


def _connect(server, timeout=10):
    parts = urlsplit(server.url)
    return socket.create_connection((parts.hostname, parts.port), timeout=timeout)


def _raw_request(server, payload: bytes) -> tuple[int, dict]:
    """Send raw bytes over a socket; return (status, decoded JSON body)."""
    with _connect(server, timeout=5) as sock:
        sock.sendall(payload)
        status, _, doc = _read_response(sock.makefile("rb"))
    return status, doc


def test_non_numeric_content_length_is_http_400(server):
    status, doc = _raw_request(
        server,
        b"POST /policy/transfers HTTP/1.1\r\n"
        b"Host: localhost\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: banana\r\n"
        b"\r\n",
    )
    assert status == 400
    assert "Content-Length" in doc["error"]


def test_negative_content_length_is_http_400(server):
    status, doc = _raw_request(
        server,
        b"POST /policy/transfers HTTP/1.1\r\n"
        b"Host: localhost\r\n"
        b"Content-Length: -5\r\n"
        b"\r\n",
    )
    assert status == 400
    assert "Content-Length" in doc["error"]


def test_non_numeric_content_length_on_get_is_handled(server):
    # GET ignores the body, but a bogus header must not crash the handler.
    status, doc = _raw_request(
        server,
        b"GET /policy/status HTTP/1.1\r\n"
        b"Host: localhost\r\n"
        b"Content-Length: banana\r\n"
        b"\r\n",
    )
    assert status == 200
    assert "policy" in doc


def test_non_dict_json_body_is_http_400(server):
    request = urllib.request.Request(
        f"{server.url}/policy/transfers",
        data=b"[1, 2, 3]",
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=5)
    assert excinfo.value.code == 400
    assert "JSON object" in json.loads(excinfo.value.read())["error"]


def test_internal_error_is_http_500_not_dropped_connection(server):
    # Sabotage the controller to simulate an unexpected bug; the handler
    # must answer 500 + JSON instead of severing the connection.
    original = server.controller.status
    server.controller.status = lambda: 1 / 0
    try:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/policy/status", timeout=5)
        assert excinfo.value.code == 500
        assert "internal error" in json.loads(excinfo.value.read())["error"]
    finally:
        server.controller.status = original
    # The server is still alive for the next request.
    with urllib.request.urlopen(f"{server.url}/policy/status", timeout=5) as resp:
        assert resp.status == 200


def test_post_internal_error_is_http_500(server):
    original = server.controller.submit_transfers
    server.controller.submit_transfers = lambda payload: {}["boom"]
    try:
        request = urllib.request.Request(
            f"{server.url}/policy/transfers",
            data=json.dumps({"workflow": "w", "job": "j", "transfers": []}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 500
    finally:
        server.controller.submit_transfers = original


def test_explain_over_http(client, server):
    """The decision-provenance record for a tid, over the wire."""
    advice = client.submit_transfers("wf1", "j1", transfers_for("x", "y"))
    tid = advice[0].tid
    with urllib.request.urlopen(
        f"{server.url}/policy/explain/{tid}", timeout=5
    ) as resp:
        record = json.loads(resp.read())
    assert record["kind"] == "transfer" and record["tid"] == tid
    assert record["advice"]["action"] == "transfer"
    assert record["firings"] and record["digest"]
    # The REST record is exactly what the in-process API returns.
    assert record == server.service.explain(tid)


def test_explain_unknown_tid_is_http_404(client, server):
    client.submit_transfers("wf1", "j1", transfers_for("z"))
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(f"{server.url}/policy/explain/424242", timeout=5)
    assert excinfo.value.code == 404
    body = json.loads(excinfo.value.read())
    assert "424242" in body["error"]


def test_explain_non_integer_tid_is_http_400(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(f"{server.url}/policy/explain/abc", timeout=5)
    assert excinfo.value.code == 400


# -- keep-alive and pipelining: many requests in flight on one connection,
# -- answered in order
def _request_bytes(method: str, path: str, doc=None, rid=None) -> bytes:
    body = json.dumps(doc).encode() if doc is not None else b""
    head = f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
    if rid:
        head += f"X-Repro-Request-Id: {rid}\r\n"
    head += f"Content-Length: {len(body)}\r\n\r\n"
    return head.encode() + body


def _read_response(fp) -> tuple[int, dict, dict]:
    """Read one framed HTTP response: (status, headers, JSON body)."""
    status_line = fp.readline()
    status = int(status_line.split(b" ", 2)[1])
    headers = {}
    while True:
        line = fp.readline().rstrip(b"\r\n")
        if not line:
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = fp.read(int(headers.get("content-length", "0")))
    return status, headers, json.loads(body or b"{}")


def _transfer_payload(workflow: str, i: int) -> dict:
    return {
        "workflow": workflow,
        "job": f"job{i}",
        "transfers": [
            {
                "lfn": f"{workflow}_f{i}",
                "src_url": f"gsiftp://fg-vm/data/{workflow}_f{i}",
                "dst_url": f"gsiftp://obelix/scratch/{workflow}_f{i}",
                "nbytes": 1000,
            }
        ],
    }


def test_keep_alive_reuses_one_connection(server):
    with _connect(server) as sock:
        fp = sock.makefile("rb")
        for i in range(3):
            sock.sendall(
                _request_bytes("POST", "/policy/transfers", _transfer_payload("wf", i))
            )
            status, headers, doc = _read_response(fp)
            assert status == 200
            assert headers["connection"] == "keep-alive"
            assert len(doc["advice"]) == 1


def test_pipelined_burst_is_answered_in_order(server):
    """A burst of advice calls written back-to-back without waiting gets
    one response per request, in request order, ids preserved."""
    n = 20
    with _connect(server) as sock:
        burst = b"".join(
            _request_bytes(
                "POST", "/policy/transfers", _transfer_payload("wf", i), rid=f"burst-{i}"
            )
            for i in range(n)
        )
        sock.sendall(burst)
        fp = sock.makefile("rb")
        tids = []
        for i in range(n):
            status, headers, doc = _read_response(fp)
            assert status == 200
            assert headers["x-repro-request-id"] == f"burst-{i}"
            advice = doc["advice"]
            assert advice[0]["action"] == "transfer"
            tids.append(advice[0]["tid"])
    assert len(set(tids)) == n  # every request saw its own evaluation
    log = server.access_log
    assert [e["request_id"] for e in log] == [f"burst-{i}" for i in range(n)]


def test_pipelined_mixed_methods_keep_order(server):
    with _connect(server) as sock:
        sock.sendall(
            _request_bytes("POST", "/policy/transfers", _transfer_payload("wf", 0))
            + _request_bytes("GET", "/policy/status")
            + _request_bytes("POST", "/policy/transfers", _transfer_payload("wf", 1))
        )
        fp = sock.makefile("rb")
        _, _, first = _read_response(fp)
        _, _, status_doc = _read_response(fp)
        _, _, second = _read_response(fp)
    assert first["advice"][0]["action"] == "transfer"
    # The GET observes the state after the first POST, before the second.
    assert status_doc["memory"]["TransferFact"] == 1
    assert second["advice"][0]["action"] == "transfer"


def test_error_mid_pipeline_closes_connection_after_reply(server):
    """A malformed request gets its 400 and ends the connection; the
    later pipelined request is never half-applied."""
    with _connect(server) as sock:
        sock.sendall(
            _request_bytes("POST", "/policy/transfers", {"job": "only"})
            + _request_bytes("POST", "/policy/transfers", _transfer_payload("wf", 9))
        )
        fp = sock.makefile("rb")
        status, headers, doc = _read_response(fp)
        assert status == 400
        assert headers["connection"] == "close"
        assert "workflow" in doc["error"]
        assert fp.read() == b""  # server closed; second request discarded
    assert server.controller.status()["memory"].get("TransferFact") is None
