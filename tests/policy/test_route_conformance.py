"""Conformance of the policy service surface, generated from ``ROUTES``.

For every route x {single service, 2-shard router} x {in-process client,
HTTP client over a live server}: the operation exists at every layer,
and a minimal valid call answers the same on all four combinations.  A
new endpoint is covered by adding its ``ROUTES`` entry — its arguments
are synthesised from the entry's fields.
"""

import inspect
from contextlib import contextmanager

import pytest

from repro.datacatalog.model import CatalogConfig
from repro.des.core import Environment
from repro.policy import (
    InProcessPolicyClient,
    PolicyConfig,
    PolicyController,
    PolicyRestServer,
    PolicyService,
    ShardedPolicyService,
)
from repro.policy.client import HTTPPolicyClient
from repro.policy.controller import REQUIRED, ROUTES

STAGED_URL = "gsiftp://b/x"
BY_ROUTE = pytest.mark.parametrize("route", ROUTES, ids=lambda r: r.op)

#: argument values by field name; in the warmed service every other
#: name is "x" and one file is staged at ``STAGED_URL``
BY_NAME = {
    "url": STAGED_URL, "site": "b", "tid": 1, "max_bytes": 1e9,
    "transfers": [], "files": [], "ids": [], "priorities": {},
}

#: introspection of the serving process itself (shard health, wall-clock
#: histograms): same shape everywhere, not the same values
SERVICE_SPECIFIC = {"status": ("policy", "max_streams", "tenants"), "metrics_text": ()}


def minimal_args(route) -> list:
    """A value for every required field of the route."""
    return [BY_NAME.get(field.name, "x") for field in route.fields if field.default is REQUIRED]


def warmed(sharded: bool, catalog: bool = True):
    """Tenant "x" bound to workflow "x", which staged lfn "x" (tid 1)."""
    config = PolicyConfig(
        policy="greedy",
        access_control=True,
        catalog=CatalogConfig(site_capacity={"b": 1e9}) if catalog else None,
    )
    clock = lambda: 0.0  # catalog timestamps must not depend on the wall
    if sharded:
        service = ShardedPolicyService(config, num_shards=2, clock=clock)
    else:
        service = PolicyService(config, clock=clock)
    service.register_tenant("x")
    service.bind_workflow("x", "x")
    advice = service.submit_transfers("x", "x", [
        {"lfn": "x", "src_url": "gsiftp://a/x", "dst_url": STAGED_URL, "nbytes": 10.0}
    ])
    service.complete_transfers(done=[a.tid for a in advice])
    return service


@contextmanager
def caller(sharded: bool, over_http: bool, catalog: bool = True):
    """``call(op, *args, **kwargs)`` against a freshly warmed service."""
    service = warmed(sharded, catalog)
    try:
        if over_http:
            with PolicyRestServer(service) as server:
                client = HTTPPolicyClient(server.url)
                yield lambda op, *a, **kw: getattr(client, op)(*a, **kw)
        else:
            env = Environment()
            client = InProcessPolicyClient(service, env)

            def call(op, *a, **kw):
                process = env.process(getattr(client, op)(*a, **kw))
                env.run()
                return process.value

            yield call
    finally:
        if sharded:
            service.close()


COMBINATIONS = [(sharded, over_http) for sharded in (False, True) for over_http in (False, True)]


@BY_ROUTE
def test_operation_exists_at_every_layer(route):
    service_op = route.service_op or route.op
    for owner, name in (
        (PolicyController, route.op),
        (HTTPPolicyClient, route.op),
        (InProcessPolicyClient, route.op),
        (PolicyService, service_op),
        (ShardedPolicyService, service_op),
    ):
        # in the class's own __dict__: bench/trace.py patches them there
        assert inspect.isfunction(owner.__dict__.get(name)), (owner.__name__, name)
    assert inspect.isgeneratorfunction(InProcessPolicyClient.__dict__[route.op])


@BY_ROUTE
def test_minimal_call_answers_the_same_everywhere(route):
    args = minimal_args(route)
    results = {}
    for sharded, over_http in COMBINATIONS:
        with caller(sharded, over_http) as call:
            result = call(route.op, *args)
        if isinstance(result, dict):
            result.pop("meta", None)  # where a decision ran, not what it was
        results[sharded, over_http] = result
    if route.op in SERVICE_SPECIFIC:
        first, *others = results.values()
        for other in others:
            assert type(other) is type(first)
            for key in SERVICE_SPECIFIC[route.op]:
                assert other[key] == first[key]
        return
    for sharded in (False, True):
        direct, wire = results[sharded, False], results[sharded, True]
        assert wire == direct, (sharded, direct, wire)
    for over_http in (False, True):
        assert results[False, over_http] == results[True, over_http], over_http


@pytest.mark.parametrize("sharded, over_http", COMBINATIONS)
def test_retain_staged_reaches_the_service(sharded, over_http):
    for retain, state in ((True, "staged"), (False, "unknown")):
        # without the catalog, which retains every replica it tracks
        with caller(sharded, over_http, catalog=False) as call:
            call("unregister_workflow", "x", retain_staged=retain)
            assert call("staging_state", "x", STAGED_URL) == state
