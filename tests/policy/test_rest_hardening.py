"""REST hardening: request-size limits and graceful drain on stop()."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.policy import PolicyConfig, PolicyService
from repro.policy.client import HTTPPolicyClient, RetryPolicy
from repro.policy.rest import PolicyRestServer


@pytest.fixture
def make_server():
    def factory(**kwargs):
        service = PolicyService(
            PolicyConfig(policy="greedy", default_streams=4, max_streams=50)
        )
        return PolicyRestServer(service, **kwargs)

    return factory


def post(url, payload: dict, timeout=5):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def test_oversized_body_is_http_413(make_server):
    with make_server(max_request_bytes=256) as server:
        payload = {"workflow": "wf", "job": "j", "transfers": [], "pad": "x" * 1024}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(f"{server.url}/policy/transfers", payload)
        assert excinfo.value.code == 413
        assert "exceeds" in json.loads(excinfo.value.read())["error"]
        # The server survives and serves ordinary requests afterwards.
        doc = post(
            f"{server.url}/policy/staging",
            {"lfn": "a", "url": "gsiftp://obelix/scratch/a"},
        )
        assert doc["state"] == "unknown"


def test_body_at_the_limit_is_accepted(make_server):
    payload = {"workflow": "wf", "job": "j", "transfers": []}
    size = len(json.dumps(payload).encode())
    with make_server(max_request_bytes=size) as server:
        doc = post(f"{server.url}/policy/transfers", payload)
        assert doc["advice"] == []


def test_request_size_cap_validation(make_server):
    with pytest.raises(ValueError):
        make_server(max_request_bytes=0)
    with pytest.raises(ValueError):
        make_server(drain_timeout=-1)


def test_stop_drains_in_flight_request(make_server):
    server = make_server(drain_timeout=10.0)
    server.start()
    url = server.url
    release = threading.Event()
    original = server.controller.status

    def slow_status():
        release.wait(5)
        return original()

    server.controller.status = slow_status
    results = {}

    def slow_call():
        with urllib.request.urlopen(f"{url}/policy/status", timeout=10) as resp:
            results["status"] = resp.status

    t = threading.Thread(target=slow_call)
    t.start()
    # Wait until the slow request is actually in flight.
    deadline = time.monotonic() + 5
    while not server._state._in_flight and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server._state._in_flight == 1

    def stop_then_release():
        time.sleep(0.2)
        release.set()

    releaser = threading.Thread(target=stop_then_release)
    releaser.start()
    assert server.stop() is True  # drained: the in-flight request finished
    releaser.join()
    t.join(timeout=5)
    assert results["status"] == 200


def test_requests_during_drain_get_http_503(make_server):
    server = make_server(drain_timeout=5.0)
    server.start()
    url = server.url
    server._state.begin_stop()  # drain mode: refuse new work
    try:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{url}/policy/status", timeout=5)
        assert excinfo.value.code == 503
    finally:
        server.stop()


def test_stop_reports_timeout_when_request_hangs(make_server):
    server = make_server(drain_timeout=0.2)
    server.start()
    url = server.url
    release = threading.Event()
    original = server.controller.status
    server.controller.status = lambda: (release.wait(10), original())[1]

    def hung_request():
        try:
            urllib.request.urlopen(f"{url}/policy/status", timeout=15).read()
        except OSError:
            pass  # the failed drain closed the connection under it

    t = threading.Thread(target=hung_request)
    t.daemon = True
    t.start()
    deadline = time.monotonic() + 5
    while not server._state._in_flight and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server.stop() is False  # the hung request outlived the drain window
    release.set()
    t.join(timeout=5)


def test_client_surfaces_413_without_retry(make_server):
    calls = {"sleeps": 0}
    with make_server(max_request_bytes=128) as server:
        client = HTTPPolicyClient(
            server.url,
            retry=RetryPolicy(retries=3, base_delay=0.01),
            sleep=lambda d: calls.__setitem__("sleeps", calls["sleeps"] + 1),
        )
        transfers = [
            {
                "lfn": f"f{i}",
                "src_url": f"gsiftp://fg-vm/data/f{i}",
                "dst_url": f"gsiftp://obelix/scratch/f{i}",
                "nbytes": 1000,
            }
            for i in range(20)
        ]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            client.submit_transfers("wf", "j", transfers)
        assert excinfo.value.code == 413
        assert calls["sleeps"] == 0  # a 4xx is not retried
