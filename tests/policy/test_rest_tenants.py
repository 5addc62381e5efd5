"""REST tenant CRUD, per-tenant metrics labels, and the NaN/inf quota
regression: ``json.loads`` happily parses ``NaN``/``Infinity``, and
``NaN < 0`` is False, so naive range checks let poisoned numbers into
policy memory.  Every byte/weight field must reject non-finite values
with HTTP 400."""

import json
import urllib.error
import urllib.request

import pytest

from repro.policy import PolicyConfig, PolicyService
from repro.policy.rest import PolicyRestServer


@pytest.fixture
def server():
    service = PolicyService(
        PolicyConfig(policy="greedy", default_streams=4, max_streams=50,
                     access_control=True)
    )
    with PolicyRestServer(service) as srv:
        yield srv


def post(url, payload: dict, timeout=5):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def get(url, timeout=5):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode()


def post_error_code(url, payload) -> int:
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        post(url, payload)
    return excinfo.value.code


def one_transfer(**field) -> dict:
    transfer = {"lfn": "f", "src_url": "gsiftp://a/f", "dst_url": "gsiftp://b/f"}
    return {"workflow": "wf", "job": "j", "transfers": [{**transfer, **field}]}


def test_tenant_crud_roundtrip(server):
    doc = post(f"{server.url}/policy/tenants",
               {"tenant": "acme", "weight": 4, "priority_class": 1,
                "max_bytes": 1e9, "max_streams": 8, "max_concurrent": 2})
    assert doc == {"tenant": "acme", "registered": True}
    post(f"{server.url}/policy/tenants/bind",
         {"workflow": "wf1", "tenant": "acme"})
    census = json.loads(get(f"{server.url}/policy/tenants"))["tenants"]
    assert census == [{
        "tenant": "acme", "weight": 4.0, "priority_class": 1,
        "max_bytes": 1e9, "max_streams": 8, "max_concurrent": 2,
        "inflight_streams": 0, "bytes_staged": 0.0, "workflows": ["wf1"],
    }]
    doc = post(f"{server.url}/policy/tenants/remove", {"tenant": "acme"})
    assert doc["removed"] == 2  # the tenant fact + one binding
    assert json.loads(get(f"{server.url}/policy/tenants"))["tenants"] == []


def test_bound_tenant_budget_applies_over_rest(server):
    post(f"{server.url}/policy/tenants", {"tenant": "acme", "max_streams": 6})
    post(f"{server.url}/policy/tenants/bind",
         {"workflow": "wf", "tenant": "acme"})
    doc = post(f"{server.url}/policy/transfers", {
        "workflow": "wf", "job": "j",
        "transfers": [
            {"lfn": f"f{i}", "src_url": f"gsiftp://a/f{i}",
             "dst_url": f"gsiftp://b/f{i}", "nbytes": 10.0, "streams": 4}
            for i in range(2)
        ],
    })
    assert [a["streams"] for a in doc["advice"]] == [4, 2]
    metrics = get(f"{server.url}/policy/metrics")
    assert 'repro_policy_tenant_inflight_streams{tenant="acme"} 6' in metrics


def test_bind_unknown_tenant_is_400(server):
    assert post_error_code(f"{server.url}/policy/tenants/bind",
                           {"workflow": "wf", "tenant": "ghost"}) == 400


@pytest.mark.parametrize("payload", [
    {"tenant": "t", "weight": float("nan")},
    {"tenant": "t", "weight": float("inf")},
    {"tenant": "t", "weight": 0},
    {"tenant": "t", "weight": -2},
    {"tenant": "t", "weight": True},
    {"tenant": "t", "max_bytes": float("nan")},
    {"tenant": "t", "max_bytes": float("-inf")},
    {"tenant": "t", "max_bytes": -5},
    {"tenant": "t", "max_streams": 0},
    {"tenant": "t", "max_streams": 2.5},
    {"tenant": "t", "max_concurrent": -1},
    {"tenant": "t", "priority_class": "high"},
    {"tenant": ""},
    # the same poison through the other numeric fields of the surface:
    # ``true`` is an int to isinstance, and NaN compares False to any bound
    ("/policy/transfers", one_transfer(nbytes=float("nan"))),
    ("/policy/transfers", one_transfer(nbytes=float("inf"))),
    ("/policy/transfers", one_transfer(nbytes=True)),
    ("/policy/transfers", one_transfer(streams=True)),
    ("/policy/transfers/complete", {"done": [True]}),
    ("/policy/transfers/complete", {"failed": [False]}),
    ("/policy/cleanups/complete", {"ids": [True]}),
])
def test_tenant_registration_rejects_poisoned_numbers(server, payload):
    path, payload = payload if isinstance(payload, tuple) else ("/policy/tenants", payload)
    assert post_error_code(f"{server.url}{path}", payload) == 400
    assert json.loads(get(f"{server.url}/policy/tenants"))["tenants"] == []
    assert "TransferFact" not in json.loads(get(f"{server.url}/policy/status"))["memory"]


@pytest.mark.parametrize("max_bytes", [float("nan"), float("inf"),
                                       float("-inf"), -1.0, True])
def test_set_quota_rejects_non_finite_bytes(server, max_bytes):
    # Regression: NaN/Infinity survive json.dumps/loads round-trips and
    # NaN compares False against every bound.
    code = post_error_code(f"{server.url}/policy/quotas",
                           {"workflow": "wf", "max_bytes": max_bytes})
    assert code == 400


def test_set_quota_accepts_finite_bytes(server):
    doc = post(f"{server.url}/policy/quotas",
               {"workflow": "wf", "max_bytes": 5e9})
    assert doc == {"workflow": "wf", "max_bytes": 5e9}
