"""Tests of the ensemble scheduling policies."""

import pytest

from repro.tenancy import (
    FairShareScheduler,
    FifoScheduler,
    StrictPriorityScheduler,
    TenantQuotaError,
    TenantRegistry,
    TenantSpec,
    make_scheduler,
)


def registry():
    reg = TenantRegistry()
    reg.register("bronze", weight=1)
    reg.register("silver", weight=2)
    reg.register("gold", weight=4)
    return reg


def drain(sched, eligible=None):
    order = []
    while len(sched):
        sub = sched.select(eligible)
        if sub is None:
            break
        order.append(sub.name)
        sched.charge(sub.tenant, sub.est_bytes)
    return order


def test_fifo_ignores_tenants():
    sched = FifoScheduler(registry())
    for i, tenant in enumerate(["gold", "bronze", "silver", "gold"]):
        sched.submit(tenant, f"wf{i}", est_bytes=100)
    assert drain(sched) == ["wf0", "wf1", "wf2", "wf3"]


def test_strict_priority_orders_by_class_then_arrival():
    reg = registry()
    reg.register("gold", weight=4, priority_class=2)
    reg.register("silver", weight=2, priority_class=1)
    sched = StrictPriorityScheduler(reg)
    sched.submit("bronze", "b0")
    sched.submit("silver", "s0")
    sched.submit("gold", "g0")
    sched.submit("gold", "g1")
    assert drain(sched) == ["g0", "g1", "s0", "b0"]


def test_fair_share_interleaves_by_weight():
    sched = FairShareScheduler(registry())
    for tenant in ("bronze", "silver", "gold"):
        for i in range(4):
            sched.submit(tenant, f"{tenant[0]}{i}", est_bytes=100)
    order = drain(sched)
    # While every tenant has backlog (first 7 = one weight round), counts
    # follow the 1:2:4 weights exactly.
    first_round = order[:7]
    assert sum(n.startswith("b") for n in first_round) == 1
    assert sum(n.startswith("s") for n in first_round) == 2
    assert sum(n.startswith("g") for n in first_round) == 4


def test_fair_share_priority_class_dominates_pass():
    reg = registry()
    reg.register("bronze", weight=1, priority_class=5)
    sched = FairShareScheduler(reg)
    sched.charge("bronze", 1_000_000)  # huge pass value...
    sched.submit("gold", "g0")
    sched.submit("bronze", "b0")
    assert sched.select().name == "b0"  # ...but the class still wins


def test_fair_share_ties_fall_back_to_arrival_order():
    sched = FairShareScheduler(registry())
    sched.submit("gold", "g0")
    sched.submit("gold", "g1")
    assert [sched.select().name, sched.select().name] == ["g0", "g1"]


def test_charge_reconciliation_floors_at_zero():
    sched = FairShareScheduler(registry())
    assert sched.charge("gold", 100) == 100
    assert sched.charge("gold", -250) == 0.0


def test_seed_charges_reproduces_decisions():
    """A scheduler seeded with a snapshot continues the same order."""
    full = FairShareScheduler(registry())
    for tenant in ("bronze", "silver", "gold"):
        for i in range(4):
            full.submit(tenant, f"{tenant[0]}{i}", est_bytes=100)
    prefix = []
    for _ in range(5):
        sub = full.select()
        prefix.append(sub.name)
        full.charge(sub.tenant, sub.est_bytes)
    snapshot = dict(full.charged)
    remaining = sorted(full._queue, key=lambda s: s.seq)

    resumed = FairShareScheduler(registry())
    resumed.seed_charges(snapshot)
    for sub in remaining:  # re-queue in original arrival order
        resumed.submit(sub.tenant, sub.name, est_bytes=100)
    assert drain(resumed) == drain(full)


def test_byte_quota_rejects_at_submit():
    reg = registry()
    reg.register("bronze", weight=1, max_bytes=150)
    sched = FairShareScheduler(reg)
    sched.submit("bronze", "ok", est_bytes=100)
    with pytest.raises(TenantQuotaError):
        sched.submit("bronze", "blown", est_bytes=100)
    assert len(sched) == 1  # the rejected submission never queued


def test_submit_rejects_unknown_tenant_and_bad_bytes():
    sched = FifoScheduler(registry())
    with pytest.raises(KeyError):
        sched.submit("nobody", "wf")
    with pytest.raises(ValueError):
        sched.submit("gold", "wf", est_bytes=float("nan"))
    with pytest.raises(ValueError):
        sched.submit("gold", "wf", est_bytes=-1)


def test_eligibility_filter_skips_capped_tenants():
    sched = FifoScheduler(registry())
    sched.submit("gold", "g0")
    sched.submit("bronze", "b0")
    sub = sched.select(lambda s: s.tenant != "gold")
    assert sub.name == "b0"
    assert len(sched) == 1  # g0 stays queued


def test_make_scheduler():
    reg = registry()
    assert isinstance(make_scheduler("fifo", reg), FifoScheduler)
    assert isinstance(make_scheduler("priority", reg), StrictPriorityScheduler)
    assert isinstance(make_scheduler("fair", reg), FairShareScheduler)
    with pytest.raises(ValueError):
        make_scheduler("lottery", reg)
