"""End-to-end tests of the multi-tenant ensemble runner.

The acceptance scenario from the tenancy work: a 3-tenant ensemble with
weights 1/2/4 over one testbed and one Policy Service must (a) split the
*contended* bytes within 10% of the share ratios, (b) never delete a
staged file another tenant's workflow still needs, and (c) reproduce the
admission order byte-identically — on the reference session, across
process restarts, and after a crash when the scheduler is re-seeded with
the recovered byte ledgers.
"""

import pytest

from repro.experiments import ExperimentConfig, run_tenant_ensemble
from repro.experiments.tracing import run_traced_ensemble
from repro.tenancy import AdmissionConfig, TenantSpec
from repro.workflow.montage import MB, MontageConfig, augmented_montage

from tests.conftest import both_engines
from tests.reference import reference_engine


def cfg(**kw):
    defaults = dict(extra_file_mb=10, n_images=6, seed=13, policy="greedy")
    defaults.update(kw)
    return ExperimentConfig(**defaults)


THREE_TENANTS = [
    TenantSpec("bronze", weight=1),
    TenantSpec("silver", weight=2),
    TenantSpec("gold", weight=4),
]


def instance(name: str, shared: bool = False):
    """One small augmented-Montage workflow with its own LFN namespace."""
    prefix = "" if shared else f"{name}_"
    return augmented_montage(
        10 * MB, MontageConfig(n_images=6, name=name, lfn_prefix=prefix)
    )


def submissions(per_tenant: int, tenants=("bronze", "silver", "gold")):
    subs = []
    for i in range(per_tenant):
        for tenant in tenants:
            name = f"{tenant[0]}{i}"
            subs.append((tenant, instance(name)))
    return subs


def short(name: str) -> str:
    """Strip augmented_montage's ``-extra10MB`` suffix: ``g0-extra10MB -> g0``."""
    return name.split("-")[0]


def by_workflow(result):
    """Map workflow *name* -> its RunMetrics (plan ids are ``name#seq``)."""
    return {m.workflow_id.split("#")[0]: m for m in result.metrics}


def tenant_fractions(result, names):
    """Bytes staged per tenant over ``names``, as fractions of the total."""
    by_name = by_workflow(result)
    totals: dict[str, float] = {}
    for name in names:
        tenant = result.tenant_of[name]
        totals[tenant] = totals.get(tenant, 0.0) + by_name[name].bytes_staged
    grand = sum(totals.values())
    return {tenant: nbytes / grand for tenant, nbytes in totals.items()}


# -- fair share ---------------------------------------------------------------
def test_contended_bytes_match_share_ratios_within_10pct():
    """While every tenant has backlog, bytes track the 1:2:4 weights.

    The contended prefix is the first sum-of-weights admissions; once the
    light tenants' queues drain the heavy ones take the leftover slots,
    so the *final* totals equalize by construction.
    """
    result = run_tenant_ensemble(
        cfg(),
        THREE_TENANTS,
        submissions(per_tenant=4),
        admission=AdmissionConfig(max_concurrent=7),
        scheduler="fair",
    )
    assert all(m.success for m in result.metrics)
    contended = result.admission_order[:7]
    fractions = tenant_fractions(result, contended)
    assert fractions["bronze"] == pytest.approx(1 / 7, rel=0.10)
    assert fractions["silver"] == pytest.approx(2 / 7, rel=0.10)
    assert fractions["gold"] == pytest.approx(4 / 7, rel=0.10)
    assert result.tenant_shares == {"bronze": 1 / 7, "silver": 2 / 7,
                                    "gold": 4 / 7}


def test_priority_class_preempts_fair_share():
    tenants = [
        TenantSpec("bronze", weight=1),
        TenantSpec("silver", weight=2),
        TenantSpec("gold", weight=4, priority_class=1),
    ]
    result = run_tenant_ensemble(
        cfg(),
        tenants,
        submissions(per_tenant=2),
        admission=AdmissionConfig(max_concurrent=2),
        scheduler="fair",
    )
    # Both gold workflows admitted before any lower class touches a slot.
    assert [short(n) for n in result.admission_order[:2]] == ["g0", "g1"]


def test_per_tenant_concurrency_cap_lets_others_overtake():
    tenants = [TenantSpec("gold", weight=4, max_concurrent=1),
               TenantSpec("bronze", weight=1)]
    subs = [("gold", instance("g0")), ("gold", instance("g1")),
            ("bronze", instance("b0"))]
    result = run_tenant_ensemble(
        cfg(),
        tenants,
        subs,
        admission=AdmissionConfig(max_concurrent=3),
        scheduler="fifo",
    )
    # gold's second workflow waits for its own cap; bronze takes the slot.
    assert [short(n) for n in result.admission_order] == ["g0", "b0", "g1"]
    assert sorted(short(n) for n in result.completed_order) == ["b0", "g0", "g1"]


# -- isolation ----------------------------------------------------------------
def test_no_cross_tenant_deletion_of_shared_staged_files():
    """Two tenants over one dataset with cleanup ON: the leader's cleanup
    jobs must not delete files the other tenant's workflow still needs —
    a cross-tenant deletion would force the follower to re-stage (its
    ``transfers_executed`` would rise) or fail outright."""
    tenants = [TenantSpec("acme", weight=1), TenantSpec("beta", weight=1)]
    subs = [("acme", instance("m0", shared=True)),
            ("beta", instance("m1", shared=True))]
    result = run_tenant_ensemble(
        cfg(cleanup=True),
        tenants,
        subs,
        admission=AdmissionConfig(max_concurrent=2),
        scheduler="fair",
    )
    leader, follower = result.metrics
    assert leader.success and follower.success
    assert leader.transfers_executed > 0
    assert follower.transfers_executed == 0
    assert follower.transfers_skipped + follower.transfers_waited > 0


def test_isolated_policies_stage_independently():
    """share_policy=False: no shared memory, both tenants stage everything
    (and the lazily built per-workflow clients still work end to end)."""
    tenants = [TenantSpec("acme"), TenantSpec("beta")]
    subs = [("acme", instance("m0", shared=True)),
            ("beta", instance("m1", shared=True))]
    result = run_tenant_ensemble(
        cfg(),
        tenants,
        subs,
        admission=AdmissionConfig(max_concurrent=2),
        scheduler="fair",
        share_policy=False,
    )
    assert all(m.success for m in result.metrics)
    assert all(m.transfers_executed > 0 for m in result.metrics)
    assert all(m.transfers_skipped == 0 and m.transfers_waited == 0
               for m in result.metrics)


# -- quotas -------------------------------------------------------------------
def test_byte_quota_rejects_at_the_door():
    tenants = [TenantSpec("capped", max_bytes=1.0), TenantSpec("free")]
    subs = [("capped", instance("c0")), ("free", instance("f0"))]
    result = run_tenant_ensemble(
        cfg(), tenants, subs, admission=AdmissionConfig(max_concurrent=2)
    )
    assert [short(r[1]) for r in result.rejected] == ["c0"]
    assert [short(m.workflow_id.split("#")[0]) for m in result.metrics] == ["f0"]
    assert result.metrics[0].success
    assert result.tenant_bytes["capped"] == 0.0


# -- determinism --------------------------------------------------------------
@both_engines
def test_admission_and_trace_deterministic_across_engines(engine):
    def traced():
        return run_traced_ensemble(
            cfg(),
            THREE_TENANTS,
            submissions(per_tenant=2),
            admission=AdmissionConfig(max_concurrent=2),
        )

    first, second = traced(), traced()
    assert first.result.admission_order == second.result.admission_order
    assert first.jsonl() == second.jsonl()


def test_engines_agree_on_admission_order():
    def run():
        return run_tenant_ensemble(
            cfg(),
            THREE_TENANTS,
            submissions(per_tenant=2),
            admission=AdmissionConfig(max_concurrent=2),
        ).admission_order

    with reference_engine():
        expected = run()
    assert run() == expected


def test_seeded_charges_reproduce_post_crash_admissions():
    """Crash recovery at the ensemble layer: re-seed the scheduler with the
    bytes each tenant had staged before the crash and re-queue the
    unfinished submissions — the resumed admission order must equal the
    tail of the uninterrupted run's order."""
    subs = submissions(per_tenant=2)
    full = run_tenant_ensemble(
        cfg(),
        THREE_TENANTS,
        subs,
        admission=AdmissionConfig(max_concurrent=1),
        scheduler="fair",
    )
    crash_at = 3  # the first three workflows completed, then the crash
    done = full.admission_order[:crash_at]
    by_name = by_workflow(full)
    charges: dict[str, float] = {}
    for name in done:
        tenant = full.tenant_of[name]
        charges[tenant] = charges.get(tenant, 0.0) + by_name[name].bytes_staged
    remaining = [(t, w) for t, w in subs if w.name not in done]

    resumed = run_tenant_ensemble(
        cfg(),
        THREE_TENANTS,
        remaining,
        admission=AdmissionConfig(max_concurrent=1),
        scheduler="fair",
        initial_charges=charges,
    )
    assert resumed.admission_order == full.admission_order[crash_at:]
    assert all(m.success for m in resumed.metrics)
