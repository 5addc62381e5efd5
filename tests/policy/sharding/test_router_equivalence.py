"""The sharded router must be byte-identical to the single service.

Every (shard count, policy pack) cell drives the multi-site
Montage scenario — submits, wave completions with failures, state
queries, cleanups, and workflow unregistration — through both a plain
``PolicyService`` and a ``ShardedPolicyService`` and compares the full
JSON advice logs.
"""

import json

import pytest

from repro.policy import PolicyService, ShardedPolicyService
from repro.policy.model import PolicyConfig

from tests.policy.sharding.conftest import (
    make_router,
    make_single,
    multi_site_batches,
    multi_site_drive,
)

_PACKS = [
    pytest.param({}, id="greedy"),
    pytest.param({"policy": "balanced", "cluster_count": 3}, id="balanced"),
    pytest.param({"order_by": "priority"}, id="priority"),
    pytest.param({"policy": "fifo"}, id="fifo"),
]


@pytest.mark.parametrize("num_shards", [1, 2, 4])
@pytest.mark.parametrize("policy_kw", _PACKS)
def test_sharded_advice_byte_identical_to_single(num_shards, policy_kw):
    single_log = multi_site_drive(make_single(**policy_kw))
    router = make_router(num_shards, **policy_kw)
    try:
        sharded_log = multi_site_drive(router)
    finally:
        router.close()
    assert json.dumps(single_log, sort_keys=True) == json.dumps(
        sharded_log, sort_keys=True
    )


def test_batches_actually_split_across_shards():
    """The equivalence above is vacuous if one shard gets everything."""
    router = make_router(4)
    try:
        _job, items = multi_site_batches()[0]
        multi_site_drive(router)
        dispatched = {
            labels
            for (_n, labels, value) in router._m_dispatch.samples()
            if value > 0
        }
    finally:
        router.close()
    assert len(dispatched) >= 2, f"all work went to shards {dispatched}"


def test_priority_ordering_matches_single_service():
    """Priority pre-sort happens at the router, not per shard."""
    specs = [
        {
            "lfn": f"p{i}",
            "src_url": f"gsiftp://site{i % 5}/data/p{i}",
            "dst_url": f"gsiftp://obelix/scratch/p{i}",
            "nbytes": 1000.0,
            "priority": i % 3,
        }
        for i in range(20)
    ]
    single = make_single(order_by="priority")
    router = make_router(4, order_by="priority")
    try:
        a = [x.to_dict() for x in single.submit_transfers("wf", "j", specs)]
        b = [x.to_dict() for x in router.submit_transfers("wf", "j", specs)]
    finally:
        router.close()
    assert a == b


def test_group_ids_renumbered_to_single_service_canon():
    """Shards mint group ids locally; the router renumbers them so the
    merged advice carries exactly the single service's numbering."""
    specs = [
        {
            "lfn": f"g{i}",
            "src_url": f"gsiftp://site{i % 3}/data/g{i}",
            "dst_url": f"gsiftp://obelix/scratch/g{i}",
            "nbytes": 1000.0,
        }
        for i in range(12)
    ]
    single = make_single()
    router = make_router(4)
    try:
        expect = [a.group_id for a in single.submit_transfers("wf", "j", specs)]
        got = [a.group_id for a in router.submit_transfers("wf", "j", specs)]
    finally:
        router.close()
    assert got == expect
    # Canonical numbering is contiguous from 1.
    assert set(got) == set(range(1, max(got) + 1))


def test_num_shards_validated():
    with pytest.raises(ValueError):
        ShardedPolicyService(PolicyConfig(), num_shards=0)


def test_config_fingerprint_matches_single_service():
    cfg = PolicyConfig(policy="greedy", default_streams=4, max_streams=12)
    single = PolicyService(cfg)
    router = ShardedPolicyService(cfg, num_shards=2)
    try:
        assert router.config_fingerprint() == single.config_fingerprint()
    finally:
        router.close()


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_explain_digests_invariant_across_shard_counts(num_shards):
    """``explain`` must return the same causal record (same digest) for
    the same request stream whatever the shard count: pair/cluster
    ledgers are shard-complete by routing, and the router rewrites the
    one shard-local value (the advice's group id) to the canonical one."""
    single = make_single()
    multi_site_drive(single)
    expected = {
        (r["kind"], r.get("tid", r.get("cid"))): r for r in single.decision_records()
    }
    router = make_router(num_shards)
    try:
        multi_site_drive(router)
        got = {
            (r["kind"], r.get("tid", r.get("cid"))): r
            for r in router.decision_records()
        }
        assert set(got) == set(expected)
        for key, record in got.items():
            reference = expected[key]
            assert record["digest"] == reference["digest"], key
            # Byte-identical once the digest-excluded meta is dropped.
            a = {k: v for k, v in record.items() if k != "meta"}
            b = {k: v for k, v in reference.items() if k != "meta"}
            assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        # The point query agrees with the aggregate, both kinds.
        some_tid = next(i for (kind, i) in got if kind == "transfer")
        assert router.explain(some_tid)["digest"] == expected[
            ("transfer", some_tid)]["digest"]
        some_cid = next(i for (kind, i) in got if kind == "cleanup")
        assert router.explain_cleanup(some_cid)["digest"] == expected[
            ("cleanup", some_cid)]["digest"]
    finally:
        router.close()
