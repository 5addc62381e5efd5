"""Tests of the per-tenant fair-share rule pack (rules_fairshare.py).

The pack meters *aggregate* stream budgets per tenant: every new transfer
of a bound workflow is stamped with its owner, reserved against the
tenant's ``max_streams`` ledger (clamped, never blocked — a wedged
transfer would poll forever), refunded when the allocator grants less,
and released when the transfer settles.  Ledgers survive a crash via the
journal, so a recovered service reproduces admission decisions.
"""

import pytest

from repro.policy import PolicyConfig, PolicyJournal, PolicyService
from repro.policy.model import TransferFact

from tests.policy.conftest import spec
from tests.reference import reference_engine


def config(**kw):
    defaults = dict(policy="greedy", default_streams=4, max_streams=50)
    defaults.update(kw)
    return PolicyConfig(**defaults)


def service_with_tenant(max_streams=None, max_bytes=None):
    svc = PolicyService(config())
    svc.register_tenant("acme", weight=2, max_streams=max_streams,
                        max_bytes=max_bytes)
    svc.bind_workflow("wf", "acme")
    return svc


def census(svc, tenant):
    return next(t for t in svc.tenants() if t["tenant"] == tenant)


def test_transfers_are_stamped_with_owner():
    svc = service_with_tenant()
    svc.submit_transfers("wf", "j", [spec("a")])
    fact = next(f for f in svc.memory.facts_of(TransferFact) if f.tid == 1)
    assert fact.tenant == "acme"


def test_unbound_workflow_is_not_stamped():
    svc = service_with_tenant()
    svc.submit_transfers("other-wf", "j", [spec("a")])
    fact = next(f for f in svc.memory.facts_of(TransferFact) if f.tid == 1)
    assert fact.tenant is None


def test_budget_clamps_but_never_denies():
    svc = service_with_tenant(max_streams=6)
    advice = svc.submit_transfers("wf", "j", [
        spec("a", streams=4), spec("b", streams=4), spec("c", streams=4),
    ])
    # 4 + 2 hit the budget of 6; the third transfer still gets the floor
    # of one stream (a "wait" would poll staging state forever).
    assert [a.streams for a in advice] == [4, 2, 1]
    assert all(a.action == "transfer" for a in advice)
    assert "aggregate stream budget" in advice[1].reason
    assert census(svc, "acme")["inflight_streams"] == 7


def test_batch_cannot_collectively_overshoot():
    """Reservation is charged per firing, so a simultaneous batch cannot
    each see the full remaining budget."""
    svc = service_with_tenant(max_streams=8)
    advice = svc.submit_transfers("wf", "j", [
        spec(f"f{i}", streams=8) for i in range(4)
    ])
    granted = [a.streams for a in advice]
    assert granted[0] == 8
    assert all(g == 1 for g in granted[1:])  # floor, not 8 each


def test_refund_when_allocator_grants_less():
    """The pair threshold can trim below the tenant reservation — the
    difference must come back to the ledger."""
    svc = PolicyService(config(max_streams=3))
    svc.register_tenant("acme", max_streams=40)
    svc.bind_workflow("wf", "acme")
    advice = svc.submit_transfers("wf", "j", [spec("a", streams=10)])
    assert advice[0].streams == 3  # host-pair threshold wins
    assert census(svc, "acme")["inflight_streams"] == 3  # not 10


def test_completion_releases_and_meters_bytes():
    svc = service_with_tenant(max_streams=10)
    advice = svc.submit_transfers("wf", "j", [
        spec("a", streams=4, nbytes=500.0), spec("b", streams=4, nbytes=300.0),
    ])
    svc.complete_transfers(done=[advice[0].tid], failed=[advice[1].tid])
    entry = census(svc, "acme")
    assert entry["inflight_streams"] == 0
    assert entry["bytes_staged"] == 500.0  # failures stage nothing


def test_release_happens_once_despite_refires():
    svc = service_with_tenant(max_streams=10)
    advice = svc.submit_transfers("wf", "j", [spec("a", streams=4)])
    svc.complete_transfers(done=[advice[0].tid])
    svc.submit_transfers("wf", "j2", [spec("b", streams=4)])  # new session
    assert census(svc, "acme")["inflight_streams"] == 4  # only b's reservation


def test_budget_frees_after_completion():
    svc = service_with_tenant(max_streams=4)
    first = svc.submit_transfers("wf", "j", [spec("a", streams=4)])
    clamped = svc.submit_transfers("wf", "j", [spec("b", streams=4)])
    assert clamped[0].streams == 1
    svc.complete_transfers(done=[first[0].tid, clamped[0].tid])
    fresh = svc.submit_transfers("wf", "j", [spec("c", streams=4)])
    assert fresh[0].streams == 4


def test_unregister_workflow_unbinds_it():
    svc = service_with_tenant()
    svc.unregister_workflow("wf")
    svc.submit_transfers("wf", "j", [spec("a")])
    fact = next(f for f in svc.memory.facts_of(TransferFact) if f.tid == 1)
    assert fact.tenant is None


def test_unregister_tenant_removes_bindings():
    svc = service_with_tenant()
    assert svc.unregister_tenant("acme") == 2  # the tenant + one binding
    assert svc.tenants() == []
    svc.submit_transfers("wf", "j", [spec("a")])
    fact = next(f for f in svc.memory.facts_of(TransferFact) if f.tid == 1)
    assert fact.tenant is None


def test_bind_requires_registered_tenant():
    svc = PolicyService(config())
    with pytest.raises(RuntimeError):
        svc.bind_workflow("wf", "ghost")


def test_reregister_preserves_ledgers():
    svc = service_with_tenant(max_streams=10)
    advice = svc.submit_transfers("wf", "j", [spec("a", streams=4, nbytes=50.0)])
    svc.complete_transfers(done=[advice[0].tid])
    svc.register_tenant("acme", weight=9, max_streams=20)  # policy update
    entry = census(svc, "acme")
    assert entry["weight"] == 9
    assert entry["bytes_staged"] == 50.0  # ledger survives the update


def test_engines_agree_on_budgeted_advice():
    def run():
        svc = service_with_tenant(max_streams=6)
        batch = [spec(f"f{i}", streams=4) for i in range(3)]
        return [a.to_dict() for a in svc.submit_transfers("wf", "j", batch)]

    with reference_engine():
        expected = run()
    assert run() == expected


def test_snapshot_includes_tenants():
    svc = service_with_tenant(max_streams=6)
    doc = svc.snapshot()
    assert doc["tenants"][0]["tenant"] == "acme"
    assert doc["tenants"][0]["workflows"] == ["wf"]


def test_tenant_metrics_labels():
    svc = service_with_tenant(max_streams=6)
    svc.submit_transfers("wf", "j", [spec("a", streams=4)])
    text = svc.metrics_text()
    assert 'repro_policy_tenant_inflight_streams{tenant="acme"} 4' in text


# -- crash / recovery ---------------------------------------------------------
def ops():
    yield ("submit", "wf", "j1", [spec("a", streams=4, nbytes=100.0),
                                  spec("b", streams=4, nbytes=200.0)])
    yield ("done", [1])
    yield ("submit", "wf", "j2", [spec("c", streams=4, nbytes=300.0)])
    yield ("done", [2, 3])
    yield ("submit", "wf2", "j1", [spec("d", streams=4, nbytes=50.0)])


def apply_op(svc, op):
    if op[0] == "submit":
        return [a.to_dict() for a in svc.submit_transfers(op[1], op[2], op[3])]
    return svc.complete_transfers(done=op[1])


def build_journaled(tmp_path):
    svc = PolicyService(config(), journal=PolicyJournal(tmp_path / "j"))
    svc.register_tenant("acme", weight=2, max_streams=6)
    svc.register_tenant("beta", weight=1, max_streams=4)
    svc.bind_workflow("wf", "acme")
    svc.bind_workflow("wf2", "beta")
    return svc


@pytest.mark.parametrize("crash_at", [1, 2, 3, 4])
def test_recovered_tenant_advice_byte_identical(tmp_path, crash_at):
    sequence = list(ops())
    journaled = build_journaled(tmp_path)
    for op in sequence[:crash_at]:
        apply_op(journaled, op)
    before_census = journaled.tenants()
    del journaled  # crash: only the journal directory survives

    recovered = PolicyService.recover(tmp_path / "j", config=config())
    assert recovered.tenants() == before_census  # ledgers + specs intact

    twin = build_journaled(tmp_path / "twin")
    for op in sequence[:crash_at]:
        apply_op(twin, op)
    after_recovered = [apply_op(recovered, op) for op in sequence[crash_at:]]
    after_twin = [apply_op(twin, op) for op in sequence[crash_at:]]
    assert after_recovered == after_twin


def test_recovery_across_engines_with_tenants(tmp_path):
    sequence = list(ops())
    journaled = build_journaled(tmp_path)
    for op in sequence[:2]:
        apply_op(journaled, op)
    with reference_engine():
        recovered = PolicyService.recover(tmp_path / "j", config=config())
        twin = build_journaled(tmp_path / "twin")
        for op in sequence[:2]:
            apply_op(twin, op)
        assert [apply_op(recovered, op) for op in sequence[2:]] == \
            [apply_op(twin, op) for op in sequence[2:]]
