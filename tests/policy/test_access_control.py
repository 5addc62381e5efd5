"""Tests of the access-control rule pack (denials and quotas)."""

import pytest

from repro.policy import PolicyConfig, PolicyService
from repro.policy.rules_access import HostDenialFact, WorkflowQuotaFact
from repro.policy.sharding import ShardedPolicyService

from tests.conftest import counter
from tests.policy.conftest import spec


def make_service(**kw):
    defaults = dict(policy="greedy", default_streams=4, max_streams=50,
                    access_control=True)
    defaults.update(kw)
    return PolicyService(PolicyConfig(**defaults))


# ------------------------------------------------------------- host denials
def test_denied_source_host_blocks_transfer():
    service = make_service()
    service.deny_host("fg-vm", direction="src", reason="maintenance window")
    advice = service.submit_transfers("wf", "j", [spec("a")])
    assert advice[0].action == "deny"
    assert "maintenance window" in advice[0].reason
    assert counter(service, "repro_policy_transfers_total", event="denied") == 1


def test_denial_direction_respected():
    service = make_service()
    service.deny_host("obelix", direction="src")  # only as a *source*
    advice = service.submit_transfers("wf", "j", [spec("a")])  # writes TO obelix
    assert advice[0].action == "transfer"


def test_any_direction_denial():
    service = make_service()
    service.deny_host("obelix", direction="any")
    advice = service.submit_transfers("wf", "j", [spec("a")])
    assert advice[0].action == "deny"


def test_allow_host_lifts_denial():
    service = make_service()
    service.deny_host("fg-vm")
    assert service.allow_host("fg-vm") == 1
    advice = service.submit_transfers("wf", "j", [spec("a")])
    assert advice[0].action == "transfer"
    assert service.allow_host("fg-vm") == 0  # nothing left to lift


def test_denied_transfer_claims_no_streams_or_resources():
    service = make_service()
    service.deny_host("fg-vm")
    service.submit_transfers("wf", "j", [spec("a")])
    snap = service.snapshot()
    assert snap["memory"].get("StagedFileFact") is None
    pair = snap["host_pairs"].get("fg-vm->obelix")
    assert pair is None or pair["allocated"] == 0


# ------------------------------------------------------------------ quotas
def test_quota_denies_beyond_budget():
    service = make_service()
    service.set_quota("wf", 2500.0)
    a = service.submit_transfers("wf", "j1", [spec("a", nbytes=1000)])
    b = service.submit_transfers("wf", "j2", [spec("b", nbytes=1000)])
    c = service.submit_transfers("wf", "j3", [spec("c", nbytes=1000)])
    assert a[0].action == "transfer"
    assert b[0].action == "transfer"
    assert c[0].action == "deny"
    assert "quota exceeded" in c[0].reason


def test_quota_applies_per_workflow():
    service = make_service()
    service.set_quota("wf-limited", 500.0)
    limited = service.submit_transfers("wf-limited", "j", [spec("a", nbytes=1000)])
    unlimited = service.submit_transfers("wf-free", "j", [spec("b", nbytes=1000)])
    assert limited[0].action == "deny"
    assert unlimited[0].action == "transfer"


def test_quota_replacement():
    service = make_service()
    service.set_quota("wf", 500.0)
    service.set_quota("wf", 5000.0)  # replaces, does not accumulate
    assert len(service.memory.facts_of(WorkflowQuotaFact)) == 1
    advice = service.submit_transfers("wf", "j", [spec("a", nbytes=1000)])
    assert advice[0].action == "transfer"


def test_quota_charging_is_exact():
    service = make_service()
    service.set_quota("wf", 1999.0)
    service.submit_transfers("wf", "j1", [spec("a", nbytes=1000)])
    quota = service.memory.facts_of(WorkflowQuotaFact)[0]
    assert quota.used_bytes == 1000.0
    denied = service.submit_transfers("wf", "j2", [spec("b", nbytes=1000)])
    assert denied[0].action == "deny"
    assert quota.used_bytes == 1000.0  # denied transfer not charged


# ----------------------------------------------------------------- guards
def test_admin_api_requires_access_control_enabled():
    service = PolicyService(PolicyConfig(policy="greedy"))
    with pytest.raises(RuntimeError):
        service.deny_host("fg-vm")
    with pytest.raises(RuntimeError):
        service.set_quota("wf", 100)


def test_fact_validation():
    with pytest.raises(ValueError):
        HostDenialFact("h", direction="sideways")
    with pytest.raises(ValueError):
        WorkflowQuotaFact("wf", -1)


# ------------------------------------------------------------------- REST
def test_access_control_over_http():
    from repro.policy.client import HTTPPolicyClient
    from repro.policy.rest import PolicyRestServer

    service = make_service()
    with PolicyRestServer(service) as server:
        client = HTTPPolicyClient(server.url)
        client.deny_host("fg-vm", reason="banned")
        advice = client.submit_transfers(
            "wf", "j",
            [{"lfn": "a", "src_url": "gsiftp://fg-vm/d/a",
              "dst_url": "gsiftp://obelix/s/a", "nbytes": 10}],
        )
        assert advice[0].action == "deny"
        assert client.allow_host("fg-vm") == 1
        client.set_quota("wf", 5.0)
        advice = client.submit_transfers(
            "wf", "j2",
            [{"lfn": "b", "src_url": "gsiftp://fg-vm/d/b",
              "dst_url": "gsiftp://obelix/s/b", "nbytes": 10}],
        )
        assert advice[0].action == "deny"


def test_rest_validation_errors():
    from repro.policy import PolicyController, PolicyRequestError

    controller = PolicyController(PolicyService(PolicyConfig(policy="greedy")))
    with pytest.raises(PolicyRequestError, match="direction"):
        controller.deny_host({"host": "h", "direction": "up"})
    with pytest.raises(PolicyRequestError, match="not enabled"):
        controller.deny_host({"host": "h"})
    with pytest.raises(PolicyRequestError, match="max_bytes"):
        controller.set_quota({"workflow": "wf", "max_bytes": -1})


# ------------------------------------------------------------- PTT behavior
def test_ptt_fails_staging_job_on_denial():
    import numpy as np

    from repro.des import Environment
    from repro.engine import PegasusTransferTool
    from repro.net import (
        FlowNetwork, GridFTPClient, Link, Network, StreamModel, TransferError,
    )
    from repro.planner.executable import ExecutableJob, JobKind, TransferSpec
    from repro.policy import InProcessPolicyClient

    env = Environment()
    net = Network()
    s = net.add_site("s")
    net.add_host("fg-vm", s)
    net.add_host("obelix", s)
    net.add_link(Link("wan", capacity=100.0))
    net.add_route(net.hosts["fg-vm"], net.hosts["obelix"], [net.links["wan"]])
    fabric = FlowNetwork(env, net, StreamModel(0, 0, 0))
    gridftp = GridFTPClient(fabric, rng=np.random.default_rng(0))
    service = make_service()
    service.deny_host("fg-vm")
    ptt = PegasusTransferTool(
        gridftp, policy=InProcessPolicyClient(service, env, latency=0.0)
    )
    job = ExecutableJob(
        id="si", kind=JobKind.STAGE_IN, site="s",
        transfers=[TransferSpec("a", "gsiftp://fg-vm/d/a",
                                "gsiftp://obelix/s/a", 10.0)],
    )

    def proc():
        yield from ptt.execute("wf", job)

    p = env.process(proc())
    with pytest.raises(TransferError, match="denied by policy"):
        env.run(until=p)


def test_quota_refunded_on_failure():
    service = make_service()
    service.set_quota("wf", 1500.0)
    a = service.submit_transfers("wf", "j1", [spec("a", nbytes=1000)])
    assert a[0].action == "transfer"
    service.complete_transfers(failed=[a[0].tid])
    quota = service.memory.facts_of(WorkflowQuotaFact)[0]
    assert quota.used_bytes == 0.0  # refunded: the bytes never moved
    retry = service.submit_transfers("wf", "j1-retry", [spec("a", nbytes=1000)])
    assert retry[0].action == "transfer"


def test_quota_charges_only_the_transfer_that_moves_bytes():
    # A same-batch duplicate, a wait on the in-flight copy and a skip of
    # the staged file move no bytes, so none of them is charged.
    service = make_service()
    service.set_quota("wf", 1000.0)
    batch = service.submit_transfers("wf", "j1", [spec("a", nbytes=100), spec("a", nbytes=100)])
    assert [a.action for a in batch] == ["transfer", "skip"]
    assert service.submit_transfers("wf", "j2", [spec("a", nbytes=100)])[0].action == "wait"
    service.complete_transfers(done=[batch[0].tid])
    assert service.submit_transfers("wf", "j3", [spec("a", nbytes=100)])[0].action == "skip"
    assert service.memory.facts_of(WorkflowQuotaFact)[0].used_bytes == 100.0


@pytest.mark.parametrize("shards", [0, 2])
def test_duplicate_of_a_quota_denied_transfer_is_denied(shards):
    # The charge of `a` leaves too little budget for `b`, whose denial
    # comes after batch de-dup skipped its twin: the twin is denied too,
    # and only the bytes `a` moves are charged.
    config = PolicyConfig(policy="greedy", default_streams=4, max_streams=50,
                          access_control=True)
    service = (
        ShardedPolicyService(config, num_shards=shards) if shards else PolicyService(config)
    )
    service.set_quota("wf", 1000.0)
    advice = service.submit_transfers(
        "wf", "j1", [spec("a", nbytes=600), spec("b", nbytes=600), spec("b", nbytes=600)]
    )
    assert [a.action for a in sorted(advice, key=lambda a: a.tid)] == ["transfer", "deny", "deny"]
    assert all("quota exceeded" in a.reason for a in advice if a.action == "deny")
    assert sum(q.used_bytes for q in service.memory.facts_of(WorkflowQuotaFact)) == 600.0
