"""The wire surface, tested from its one declaration.

Every test here is generated from ``ROUTES``: a new endpoint is covered
by its table entry (plus one line of :data:`WIRE`, which pins what its
response looks like).  Requests go through
``PolicyController.dispatch``, the way the REST frontend sends them.
"""

import json
import urllib.error

import pytest

from repro.policy import PolicyController, PolicyRequestError, PolicyRestServer
from repro.policy.client import HTTPPolicyClient
from repro.policy.controller import REQUIRED, ROUTES
from repro.policy.journal import JournalError

from tests.policy.test_route_conformance import STAGED_URL, warmed

#: request values by field name; every other string is "x" (the warmed
#: service's tenant, workflow, job and staged lfn)
SAMPLES = {
    "url": STAGED_URL, "src_url": "gsiftp://a/y", "dst_url": "gsiftp://b/y", "site": "b",
    "tid": 1, "max_bytes": 7, "ids": [], "priorities": {"j": 3},
}
#: no check accepts it: not a string, number, boolean, null or object,
#: and its entry is neither an integer nor an object
WRONG_TYPE = [None]


def members_of(field):
    """The member fields of a list-of-records field (else none)."""
    return getattr(field.check, "fields", ())


def sample(field):
    if members_of(field):
        return [{m.name: sample(m) for m in members_of(field) if m.default is REQUIRED}]
    return SAMPLES.get(field.name, "x")


def minimal(route) -> dict:
    return {f.name: sample(f) for f in route.fields if f.default is REQUIRED}


def send(route, values: dict, controller=None):
    """Dispatch ``route`` with ``values`` as its segment or JSON body."""
    controller = controller or PolicyController(warmed(sharded=False))
    if route.path.endswith(">"):
        (value,) = values.values() or [""]
        return controller.dispatch(route.verb, route.url(value))
    body = json.dumps(values).encode() if route.verb == "POST" else b""
    return controller.dispatch(route.verb, route.path, body)


def cases():
    """(route, field path, request) per way a request can be malformed."""
    for route in ROUTES:
        valid = minimal(route)
        typed = route.path.endswith(">")
        for field in route.fields:
            if field.default is REQUIRED:
                yield route, field.name, "omitted", {k: v for k, v in valid.items() if k != field.name}
            if not typed:
                yield route, field.name, "mistyped", {**valid, field.name: WRONG_TYPE}
            elif route.path.endswith(":int>"):
                yield route, field.name, "mistyped", {field.name: "abc"}
            for member in members_of(field):
                (record,) = sample(field)
                where = f"{field.name}[0].{member.name}"
                if member.default is REQUIRED:
                    broken = {k: v for k, v in record.items() if k != member.name}
                    yield route, where, "omitted", {**valid, field.name: [broken]}
                yield route, where, "mistyped", {
                    **valid, field.name: [{**record, member.name: WRONG_TYPE}]
                }


@pytest.mark.parametrize("route", ROUTES, ids=lambda r: r.op)
def test_minimal_request_is_answered(route):
    assert send(route, minimal(route)) is not None


@pytest.mark.parametrize(
    "route, where, how, values", list(cases()),
    ids=[f"{route.op}-{where}-{how}" for route, where, how, _ in cases()],
)
def test_malformed_field_is_a_400_naming_it(route, where, how, values):
    service = warmed(sharded=False)
    resident = len(service.memory)
    with pytest.raises(PolicyRequestError, match=where.replace("[", r"\[").replace("]", r"\]")):
        send(route, values, PolicyController(service))
    assert len(service.memory) == resident


@pytest.mark.parametrize("number", [-1, True, "7", float("nan"), float("inf"), 10 ** 400])
def test_byte_counts_are_finite_and_non_negative(number):
    route = BY_OP["set_quota"]
    with pytest.raises(PolicyRequestError, match="max_bytes"):
        send(route, {**minimal(route), "max_bytes": number})


@pytest.mark.parametrize("url", ["nope", "gopher://a/y", "gsiftp:///y", 7])
def test_every_url_field_is_parsed(url):
    fields = [
        (route, field.name, None) for route in ROUTES for field in route.fields
        if "url" in field.name
    ] + [
        (route, field.name, member.name) for route in ROUTES for field in route.fields
        for member in members_of(field) if "url" in member.name
    ]
    assert len(fields) == 6
    for route, name, member in fields:
        values = minimal(route)
        if member is None:
            values[name] = url
        else:
            values[name] = [{**values[name][0], member: url}]
        with pytest.raises(PolicyRequestError, match=member or name):
            send(route, values)


BY_OP = {route.op: route for route in ROUTES}
GOOD = {"lfn": "y", "src_url": "gsiftp://a/y", "dst_url": "gsiftp://b/y"}


@pytest.mark.parametrize("op, values, where", [
    # each reached the service unchecked before the table did the checking
    ("submit_transfers", {"transfers": [GOOD, {**GOOD, "priority": "high"}]}, "transfers[1].priority"),
    ("submit_transfers", {"transfers": [GOOD, {**GOOD, "cluster": {}}]}, "transfers[1].cluster"),
    ("submit_transfers", {"transfers": [GOOD, {**GOOD, "src_url": "nope"}]}, "transfers[1].src_url"),
    ("deny_host", {"reason": ["x"]}, "reason"),
    ("register_priorities", {"priorities": {"j": True}}, "priorities['j']"),
])
def test_newly_checked_fields_are_400s_that_leave_nothing_behind(op, values, where):
    service = warmed(sharded=False)
    resident = service.memory.snapshot()
    with pytest.raises(PolicyRequestError) as refused:
        send(BY_OP[op], {**minimal(BY_OP[op]), **values}, PolicyController(service))
    assert where in str(refused.value)
    assert service.memory.snapshot() == resident


def test_only_a_refusal_is_the_callers_fault(monkeypatch):
    """``JournalError`` is a ``RuntimeError`` too, and was answered 400 —
    which a client's retry policy refuses to retry."""
    service = warmed(sharded=False)

    def failing(**kwargs):
        raise JournalError("disk full")

    monkeypatch.setattr(service, "set_quota", failing)
    with pytest.raises(JournalError):
        send(BY_OP["set_quota"], minimal(BY_OP["set_quota"]), PolicyController(service))
    service.config.access_control = False
    monkeypatch.undo()
    with pytest.raises(PolicyRequestError, match="not enabled"):
        send(BY_OP["set_quota"], minimal(BY_OP["set_quota"]), PolicyController(service))


def test_a_malformed_batch_over_http_strands_no_transfer():
    """One bad transfer in a batch used to answer 500 and leave the
    batch's earlier transfers in memory, unjournaled and unreleasable:
    holding streams, and turning every later request for their files
    into ``skip: duplicate``."""
    service = warmed(sharded=False)
    resident = len(service.memory)
    with PolicyRestServer(service) as server:
        client = HTTPPolicyClient(server.url)
        with pytest.raises(urllib.error.HTTPError) as refused:
            client.submit_transfers("x", "j1", [GOOD, {**GOOD, "lfn": "z", "src_url": "not a url"}])
        assert refused.value.code == 400
        assert "transfers[1].src_url" in json.loads(refused.value.read())["error"]
        assert len(service.memory) == resident
        (advice,) = client.submit_transfers("x", "j2", [GOOD])
    assert (advice.action, advice.streams) == ("transfer", 4)


#: op -> the response document of the warmed service's minimal request,
#: as the parent of the table-driven controller answered it.  Where the
#: service's value *is* the response and is long, its keys.
REPLICA = {
    "lfn": "x", "site": "b", "url": STAGED_URL, "nbytes": 10.0, "checksum": "crc32:46b70037",
    "pin_count": 0, "last_used": 0.0,
}
WIRE = {
    "submit_transfers": {"workflow": "x", "job": "x", "advice": [{
        # the catalog's replica of "x" at site b is the cheaper source
        "tid": 2, "lfn": "x", "src_url": STAGED_URL, "dst_url": "gsiftp://b/y", "nbytes": 0.0,
        "action": "transfer", "streams": 4, "group_id": 2, "priority": 0, "reason": "",
        "wait_for": None, "lease_deadline": None,
    }]},
    "complete_transfers": {"acknowledged": 0, "evicted": []},
    "transfer_state": {"tid": 1, "state": "done"},
    "explain": [
        "advice", "digest", "dst_url", "firings", "job", "kind", "ledger", "lfn", "meta",
        "nbytes", "policy_free", "src_url", "tid", "workflow",
    ],
    "staging_state": {"lfn": "x", "url": STAGED_URL, "state": "staged"},
    "submit_cleanups": {"workflow": "x", "job": "x", "advice": [{
        "cid": 1, "lfn": "x", "url": STAGED_URL, "action": "skip",
        "reason": "catalog retains replica at gsiftp://b/x (site b under budget)",
        "lease_deadline": None,
    }]},
    "complete_cleanups": {"acknowledged": 0},
    "reconcile_staged": {"registered": 0, "joined": 1},
    "register_priorities": {"workflow": "x", "registered": 1},
    "unregister_workflow": {"workflow": "x", "unregistered": True},
    "deny_host": {"host": "x", "direction": "any", "denied": True},
    "allow_host": {"host": "x", "removed": 0},
    "set_quota": {"workflow": "x", "max_bytes": 7.0},
    "register_tenant": {"tenant": "x", "registered": True},
    "unregister_tenant": {"tenant": "x", "removed": 2},
    "bind_workflow": {"workflow": "x", "tenant": "x", "bound": True},
    "tenants": {"tenants": [{
        "tenant": "x", "weight": 1.0, "priority_class": 0, "max_bytes": None,
        "max_streams": None, "max_concurrent": None, "inflight_streams": 0,
        "bytes_staged": 10.0, "workflows": ["x"],
    }]},
    "catalog_census": {
        "replicas": [{**REPLICA, "registered_at": 0.0}],
        "sites": [{"site": "b", "capacity_bytes": 1e9, "used_bytes": 10.0}],
    },
    "catalog_replicas": {"lfn": "x", "replicas": [REPLICA]},
    "set_site_capacity": {"site": "b", "capacity_bytes": None, "used_bytes": 10.0},
    "catalog_pin": {"url": STAGED_URL, "pin_count": 1},
    "status": [
        "catalog", "default_streams", "host_pairs", "max_streams", "memory", "metrics",
        "policy", "tenants",
    ],
    "metrics_text": str,
}


@pytest.mark.parametrize("route", ROUTES, ids=lambda r: r.op)
def test_response_document_is_pinned(route):
    doc = send(route, minimal(route))
    expected = WIRE[route.op]
    if isinstance(expected, type):
        assert type(doc) is expected
    elif isinstance(expected, list):
        assert sorted(doc) == expected
    else:
        assert json.dumps(doc) == json.dumps(expected)  # key order included
