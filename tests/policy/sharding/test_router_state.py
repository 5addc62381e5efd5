"""The router's per-id state: what a lease reap does to a cleanup id, how
far the cid map grows, the spans and request counts each call leaves, and
how a shard's refusal reaches the caller."""

import pytest

from repro.obs import Tracer
from repro.policy import (
    PolicyConfig,
    PolicyController,
    PolicyRefusedError,
    PolicyRequestError,
    PolicyService,
)
from repro.policy.sharding import ShardedPolicyService, pair_key

URL = "gsiftp://obelix/scratch/a"


def _spec(site):
    return {"lfn": "a", "src_url": f"gsiftp://{site}/data/a", "dst_url": URL,
            "nbytes": 1000.0}


def _sites_on_two_shards(router):
    """Two source hosts whose pairs with ``obelix`` live on different shards."""
    homes: dict = {}
    for i in range(64):
        site = f"src{i}"
        homes.setdefault(router.ring.node_for(pair_key(site, "obelix")), site)
        if len(homes) == 2:
            return [homes[k] for k in sorted(homes)]
    raise AssertionError("ring put 64 sites on one shard")


@pytest.mark.parametrize("num_shards", [2, 4])
def test_a_reaped_cleanup_keeps_the_staged_file_owned(num_shards):
    """A late completion of a lease-reaped delete acknowledges nothing, so
    the staged copy survives and a second workflow skips it — on the fleet
    as on the single service, whichever pair asks."""
    now = [0.0]
    config = PolicyConfig(policy="greedy", lease_seconds=100.0)
    single = PolicyService(config, clock=lambda: now[0])
    router = ShardedPolicyService(config, num_shards=num_shards, clock=lambda: now[0])
    first, second = _sites_on_two_shards(router)
    answers = []
    try:
        for service in (single, router):
            now[0] = 0.0
            granted = service.submit_transfers("wf1", "stage", [_spec(first)])
            service.complete_transfers(done=[granted[0].tid])
            cleanup = service.submit_cleanups("wf1", "clean", [("a", URL)])
            assert [(c.cid, c.action) for c in cleanup] == [(1, "delete")]
            now[0] = 500.0
            assert service.reap_expired()["cleanups"] == [1]
            assert service.complete_cleanups([1]) == {"acknowledged": 0}
            advice = service.submit_transfers("wf2", "stage", [_spec(second)])
            answers.append([(a.action, a.reason) for a in advice])
    finally:
        router.close()
    assert answers[0][0][0] == "skip"
    assert answers[1] == answers[0]


def test_a_throttled_sweep_also_retires_the_reaped_cleanup():
    """The router's own lease sweep (run on the next call) treats a reaped
    delete like ``reap_expired`` does."""
    now = [0.0]
    config = PolicyConfig(policy="greedy", lease_seconds=100.0)
    router = ShardedPolicyService(config, num_shards=2, clock=lambda: now[0])
    first, second = _sites_on_two_shards(router)
    try:
        granted = router.submit_transfers("wf1", "stage", [_spec(first)])
        router.complete_transfers(done=[granted[0].tid])
        router.submit_cleanups("wf1", "clean", [("a", URL)])
        now[0] = 500.0
        assert router.complete_cleanups([1]) == {"acknowledged": 0}
        again = router.submit_transfers("wf2", "stage", [_spec(second)])
        assert again[0].action == "skip", again[0]
    finally:
        router.close()


def test_ungranted_completions_leave_the_cid_map_bounded():
    """Deletes never reported back (a cleanup tool whose completion call
    failed) cannot grow the router's cid state past its retention bound."""
    router = ShardedPolicyService(
        PolicyConfig(policy="greedy", completed_tid_retention=0), num_shards=2,
    )
    try:
        for i in range(2100):
            url = f"gsiftp://obelix/scratch/f{i}"
            granted = router.submit_transfers(
                "wf", f"s{i}",
                [{"lfn": f"f{i}", "src_url": f"gsiftp://src{i % 7}/data/f{i}",
                  "dst_url": url, "nbytes": 1.0}],
            )
            router.complete_transfers(done=[granted[0].tid])
            advice = router.submit_cleanups("wf", f"c{i}", [(f"f{i}", url)])
            assert advice[0].action == "delete"
        assert router._id_retention == 2000
        assert len(router._cids) <= router._id_retention
        assert len(router._tids) <= router._id_retention
    finally:
        router.close()


def _spans(tracer):
    return [e for e in tracer.events if e.get("ph") == "X"
            and e["name"].startswith("router.")]


def test_every_counted_call_leaves_one_flat_router_span():
    tracer = Tracer()
    router = ShardedPolicyService(
        PolicyConfig(policy="greedy"), num_shards=2, tracer=tracer,
    )
    try:
        spec = {"lfn": "b", "src_url": "gsiftp://src0/data/b",
                "dst_url": "gsiftp://obelix/scratch/b", "nbytes": 1.0}
        granted = router.submit_transfers("wf", "stage", [spec])
        router.complete_transfers(done=[granted[0].tid])
        router.transfer_state(granted[0].tid)
        router.staging_state("b", spec["dst_url"])
        router.explain(granted[0].tid)
        cleanup = router.submit_cleanups("wf", "clean", [("b", spec["dst_url"])])
        router.complete_cleanups([cleanup[0].cid])
        router.reconcile_staged("wf", [("c", "gsiftp://obelix/scratch/c")])
        router.unregister_workflow("wf")
        with pytest.raises(PolicyRefusedError):
            router.bind_workflow("wf", "nobody")
    finally:
        router.close()

    spans = _spans(tracer)
    names = [s["name"] for s in spans]
    assert names == [
        "router.submit_transfers", "router.complete_transfers",
        "router.transfer_state", "router.staging_state", "router.explain",
        "router.submit_cleanups",
        "router.complete_cleanups", "router.reconcile_staged",
        "router.unregister_workflow",
        "router.bind_workflow",
    ]
    assert all(s["track"] == "policy-router" for s in spans)
    submit = spans[0]["args"]
    assert (submit["workflow"], submit["job"], submit["batch"]) == ("wf", "stage", 1)
    assert "args" not in submit
    assert spans[-1]["args"] == {"error": "PolicyRefusedError"}

    calls = {labels: value for (_n, labels, value) in router._m_requests.samples()}
    assert calls == {f'{{call="{name[len("router."):]}"}}': 1 for name in names}


def test_a_shard_refusal_reaches_the_caller_as_a_refusal():
    """A refusal is a domain error, not an unavailable shard: the router
    passes it through, and the controller answers it as a bad request."""
    router = ShardedPolicyService(PolicyConfig(policy="greedy"), num_shards=2)
    try:
        with pytest.raises(PolicyRefusedError, match="^access control is not enabled"):
            router.deny_host("h")
        with pytest.raises(PolicyRequestError, match="^tenant 'nobody' is not registered"):
            PolicyController(router).bind_workflow({"workflow": "wf", "tenant": "nobody"})
    finally:
        router.close()
