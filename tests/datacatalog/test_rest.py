"""Catalog endpoints over real HTTP."""

import json
import urllib.error
import urllib.request

import pytest

from repro.datacatalog.model import CatalogConfig
from repro.policy import PolicyConfig, PolicyService
from repro.policy.client import HTTPPolicyClient
from repro.policy.rest import PolicyRestServer


def make_service(catalog=True):
    return PolicyService(
        PolicyConfig(
            policy="greedy",
            default_streams=4,
            max_streams=50,
            catalog=CatalogConfig(site_capacity={"obelix": 1e9})
            if catalog
            else None,
        )
    )


@pytest.fixture
def server():
    with PolicyRestServer(make_service()) as srv:
        yield srv


@pytest.fixture
def client(server):
    return HTTPPolicyClient(server.url)


def stage_one(client, lfn="weird file+name", workflow="wf1"):
    advice = client.submit_transfers(
        workflow,
        "j1",
        [
            {
                "lfn": lfn,
                "src_url": f"gsiftp://fg-vm/data/{lfn}",
                "dst_url": f"gsiftp://obelix/scratch/{lfn}",
                "nbytes": 1000,
            }
        ],
    )
    client.complete_transfers(done=[advice[0].tid])
    return lfn


def test_catalog_census_over_http(client):
    lfn = stage_one(client)
    census = client.catalog_census()
    assert [r["lfn"] for r in census["replicas"]] == [lfn]
    assert census["sites"][0]["site"] == "obelix"
    assert census["sites"][0]["used_bytes"] == 1000.0


def test_catalog_replicas_lookup_quotes_lfn(client):
    lfn = stage_one(client)  # contains a space and a '+'
    rows = client.catalog_replicas(lfn)
    assert len(rows) == 1 and rows[0]["lfn"] == lfn
    assert client.catalog_replicas("absent") == []


def test_set_site_capacity_over_http(client):
    stage_one(client)
    result = client.set_site_capacity("obelix", 5000.0)
    assert result == {
        "site": "obelix",
        "capacity_bytes": 5000.0,
        "used_bytes": 1000.0,
    }
    # None lifts the budget.
    assert client.set_site_capacity("obelix", None)["capacity_bytes"] is None


def test_pin_endpoints_over_http(client):
    lfn = stage_one(client, lfn="plain")
    url = f"gsiftp://obelix/scratch/{lfn}"
    assert client.catalog_pin(url) == {"url": url, "pin_count": 1}
    assert client.catalog_pin(url, pinned=False)["pin_count"] == 0
    with pytest.raises(urllib.error.HTTPError) as err:
        client.catalog_pin("gsiftp://obelix/scratch/missing")
    assert err.value.code == 400


def test_catalog_routes_400_when_disabled():
    with PolicyRestServer(make_service(catalog=False)) as srv:
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{srv.url}/policy/catalog", timeout=5)
        assert err.value.code == 400
        body = json.loads(err.value.read())
        assert "not enabled" in body["error"]
