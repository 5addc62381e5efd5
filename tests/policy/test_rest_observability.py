"""REST observability: request ids, access log, spans, /policy/metrics."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import Hooks, Tracer
from repro.policy import PolicyConfig, PolicyService
from repro.policy.client import HTTPPolicyClient
from repro.policy.rest import PolicyRestServer


@pytest.fixture
def tracer():
    return Tracer(clock=time.monotonic)


@pytest.fixture
def server(tracer):
    service = PolicyService(
        PolicyConfig(policy="greedy", default_streams=4, max_streams=50)
    )
    with PolicyRestServer(service, hooks=Hooks(tracer=tracer)) as srv:
        yield srv


def get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    return urllib.request.urlopen(request, timeout=5)


def test_client_request_id_is_echoed(server):
    with get(f"{server.url}/policy/status",
             headers={"X-Repro-Request-Id": "my-rid-1"}) as response:
        assert response.headers["X-Repro-Request-Id"] == "my-rid-1"


def test_server_generates_request_ids_when_absent(server):
    with get(f"{server.url}/policy/status") as response:
        first = response.headers["X-Repro-Request-Id"]
    with get(f"{server.url}/policy/status") as response:
        second = response.headers["X-Repro-Request-Id"]
    assert first.startswith("req-")
    assert second.startswith("req-")
    assert first != second


def test_error_bodies_carry_the_request_id(server):
    request = urllib.request.Request(
        f"{server.url}/policy/transfers",
        data=b"not json",
        headers={"Content-Type": "application/json",
                 "X-Repro-Request-Id": "bad-1"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=5)
    assert excinfo.value.code == 400
    body = json.loads(excinfo.value.read())
    assert body["request_id"] == "bad-1"
    assert "error" in body


def test_404_body_carries_request_id_too(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        get(f"{server.url}/no/such", headers={"X-Repro-Request-Id": "miss-1"})
    assert excinfo.value.code == 404
    assert json.loads(excinfo.value.read())["request_id"] == "miss-1"


def test_access_log_records_every_request_including_errors(server):
    get(f"{server.url}/policy/status",
        headers={"X-Repro-Request-Id": "ok-1"}).close()
    with pytest.raises(urllib.error.HTTPError):
        get(f"{server.url}/nope", headers={"X-Repro-Request-Id": "err-1"})
    log = server.access_log
    by_rid = {entry["request_id"]: entry for entry in log}
    assert by_rid["ok-1"]["status"] == 200
    assert by_rid["ok-1"]["method"] == "GET"
    assert by_rid["ok-1"]["path"] == "/policy/status"
    assert by_rid["ok-1"]["latency_s"] >= 0
    assert by_rid["ok-1"]["host"]
    assert by_rid["err-1"]["status"] == 404


def test_spans_emitted_for_success_and_error_paths(server, tracer):
    get(f"{server.url}/policy/status").close()
    with pytest.raises(urllib.error.HTTPError):
        get(f"{server.url}/nope")
    request = urllib.request.Request(
        f"{server.url}/policy/transfers", data=b"{", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError):
        urllib.request.urlopen(request, timeout=5)

    spans = tracer.spans()
    statuses = {(s["name"], s["args"]["status"]) for s in spans}
    assert ("GET /policy/status", 200) in statuses
    assert ("GET /nope", 404) in statuses
    assert ("POST /policy/transfers", 400) in statuses
    for span in spans:
        assert span["cat"] == "rest"
        assert span["args"]["request_id"]
        assert span["dur"] >= 0


def test_metrics_endpoint_serves_prometheus_text(server):
    client = HTTPPolicyClient(server.url)
    client.submit_transfers("wf1", "j1", [{
        "lfn": "f", "src_url": "gsiftp://fg-vm/data/f",
        "dst_url": "gsiftp://obelix/scratch/f", "nbytes": 10,
    }])
    with get(f"{server.url}/policy/metrics") as response:
        assert response.headers["Content-Type"].startswith("text/plain")
        text = response.read().decode()
    assert "# TYPE repro_policy_transfers_total counter" in text
    assert 'repro_policy_transfers_total{event="approved"} 1' in text
    assert "# TYPE repro_policy_call_seconds histogram" in text
    assert "repro_policy_rule_firings_total" in text


def test_http_policy_client_sends_request_ids(server):
    client = HTTPPolicyClient(server.url)
    client.status()
    rids = [entry["request_id"] for entry in server.access_log]
    assert any(rid.startswith("cli-") for rid in rids)


def test_access_log_is_bounded():
    """The access log is the hooks' sink: a bounded one keeps the newest."""
    from collections import deque

    service = PolicyService(PolicyConfig(policy="greedy"))
    hooks = Hooks(access_log=deque(maxlen=3))
    with PolicyRestServer(service, hooks=hooks) as srv:
        for i in range(5):
            get(f"{srv.url}/policy/status", headers={"X-Repro-Request-Id": f"r{i}"}).close()
        assert [e["request_id"] for e in srv.access_log] == ["r2", "r3", "r4"]
    assert srv.access_log == list(hooks.access_log)


def test_metrics_endpoint_exports_rule_profile_families():
    """With a RuleProfiler attached, /policy/metrics gains per-rule
    fire counts and match/action wall-time gauges."""
    from repro.obs import RuleProfiler

    profiler = RuleProfiler()
    service = PolicyService(
        PolicyConfig(policy="greedy", default_streams=4, max_streams=50),
        profiler=profiler,
    )
    with PolicyRestServer(service) as srv:
        client = HTTPPolicyClient(srv.url)
        client.submit_transfers("wf1", "j1", [{
            "lfn": "f", "src_url": "gsiftp://fg-vm/data/f",
            "dst_url": "gsiftp://obelix/scratch/f", "nbytes": 10,
        }])
        with get(f"{srv.url}/policy/metrics") as response:
            text = response.read().decode()
    assert "# TYPE repro_policy_rule_profile_fires gauge" in text
    assert ('repro_policy_rule_profile_fires'
            '{rule="Insert new transfers into policy memory"}') in text
    assert "repro_policy_rule_profile_match_seconds" in text
    assert "repro_policy_rule_profile_action_seconds" in text


def test_rule_profile_families_absent_without_profiler(server):
    with get(f"{server.url}/policy/metrics") as response:
        text = response.read().decode()
    assert 'repro_policy_rule_profile_fires{' not in text
