"""``HTTPPolicyClient``'s persistent connections: one dial per calling
thread, and a connection the server closed is replaced *before* the
next request is written — no request reaches the service twice."""

import http.client
import json
import threading
import time
import urllib.error
from urllib.parse import urlsplit

import pytest

from repro.policy import CircuitBreaker, PolicyUnavailableError
from repro.policy.client import HTTPPolicyClient

from tests.policy.conftest import spec

from .test_rest_connection import _server


@pytest.fixture
def dials(monkeypatch):
    """Every TCP connection ``http.client`` opens, as ``(host, port)``."""
    made = []
    connect = http.client.HTTPConnection.connect

    def counted(self):
        made.append((self.host, self.port))
        connect(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counted)
    return made


def test_calls_on_one_thread_share_one_connection(dials):
    with _server() as server, HTTPPolicyClient(server.url) as client:
        for i in range(5):
            client.submit_transfers("wf", f"j{i}", [spec(f"f{i}")])
        assert client.status()["memory"]["TransferFact"] == 5
    assert len(dials) == 1


def test_each_calling_thread_dials_once(dials):
    tids, errors = [], []

    def worker(w):
        try:
            for i in range(10):
                advice = client.submit_transfers(f"wf{w}", f"j{i}", [spec(f"w{w}_f{i}")])
                tids.extend(a.tid for a in advice)  # list.extend is atomic
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)
        finally:
            client.close()

    with _server() as server:
        client = HTTPPolicyClient(server.url)
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(dials) == 4
    assert len(tids) == len(set(tids)) == 40


def test_connection_closed_by_idle_timeout_is_replaced_before_the_request(dials):
    with _server(idle_timeout=0.3) as server, HTTPPolicyClient(server.url) as client:
        client.submit_transfers("wf", "j0", [spec("f0")])
        time.sleep(0.6)  # the server hangs up on the idle connection
        # retries=0: the call below gets exactly one attempt on the wire
        advice = client.submit_transfers("wf", "j1", [spec("f1")])
        assert [a.action for a in advice] == ["transfer"]
        assert len(dials) == 2
        submits = [e for e in server.access_log if e["path"] == "/policy/transfers"]
        assert [e["status"] for e in submits] == [200, 200]  # the second, applied once
        assert client.status()["memory"]["TransferFact"] == 2


def test_400_closes_the_connection_and_the_next_call_redials(dials):
    with _server() as server, HTTPPolicyClient(server.url) as client:
        client.status()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            client.submit_transfers("wf", "j", [{"lfn": "f"}])
        assert excinfo.value.code == 400
        assert excinfo.value.headers["Connection"] == "close"
        assert "transfers[0]" in json.loads(excinfo.value.read())["error"]
        assert client.status()["policy"] == "greedy"
    assert len(dials) == 2


def test_server_restarted_on_the_same_port_between_calls(dials):
    first = _server().start()
    port = urlsplit(first.url).port
    with HTTPPolicyClient(first.url) as client:
        assert client.status()["memory"] == {}
        first.stop()
        # Nothing listens: one attempt, refused, surfaced as unavailable.
        with pytest.raises(PolicyUnavailableError):
            client.status()
        with _server(port=port):
            client.close()  # the failed dial left nothing open; close is still safe
            assert client.status()["memory"] == {}
    assert len(dials) == 3


def test_preflight_sees_a_stopped_server_and_redials_the_new_one(dials):
    first = _server().start()
    port = urlsplit(first.url).port
    with HTTPPolicyClient(first.url) as client:
        client.submit_transfers("wf", "j0", [spec("f0")])
        first.stop()  # aborts the client's open connection
        with _server(port=port) as second:
            advice = client.submit_transfers("wf", "j1", [spec("f1")])  # retries=0
            assert [a.tid for a in advice] == [1]  # a new service: applied there, once
            assert len(second.access_log) == 1
    assert len(dials) == 2


def test_close_then_call_redials(dials):
    with _server() as server:
        client = HTTPPolicyClient(server.url)
        client.close()  # nothing open yet
        client.status()
        client.close()
        client.close()
        client.status()
        client.close()
    assert len(dials) == 2


def test_breaker_counts_one_failure_per_refused_dial(dials):
    server = _server().start()
    url = server.url
    server.stop()
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout=60.0)
    client = HTTPPolicyClient(url, breaker=breaker)
    for _ in range(2):
        with pytest.raises(PolicyUnavailableError):
            client.status()
    assert (breaker.state, breaker.failures, len(dials)) == ("closed", 2, 2)
