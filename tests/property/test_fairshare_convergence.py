"""Property-based tests of the fair-share (stride) ensemble scheduler.

The defining property of weighted fair queueing: as long as every tenant
has backlog, the fraction of bytes charged to each tenant converges to
its weight share.  We drive the scheduler directly (no DES) with a long
stream of equal-sized items and check the long-run fractions, plus the
stride invariants that make the schedule a pure function of the
submission sequence.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tenancy import FairShareScheduler, TenantRegistry, TenantSpec

ITEM_BYTES = 100.0

weights = st.lists(
    st.floats(min_value=0.25, max_value=16, allow_nan=False,
              allow_infinity=False),
    min_size=2,
    max_size=5,
)


def build(weight_list):
    registry = TenantRegistry()
    for i, w in enumerate(weight_list):
        registry.register(TenantSpec(f"t{i}", weight=w))
    return registry, FairShareScheduler(registry)


def drain(sched, registry, rounds):
    """Admit ``rounds`` items, refilling each tenant's backlog so nobody
    ever runs dry (the convergence property only holds under backlog)."""
    for name in [spec.tenant for spec in registry]:
        sched.submit(name, f"{name}-seed", est_bytes=ITEM_BYTES)
    order = []
    for _ in range(rounds):
        sub = sched.select()
        assert sub is not None
        sched.charge(sub.tenant, ITEM_BYTES)
        sched.submit(sub.tenant, f"{sub.tenant}-refill", est_bytes=ITEM_BYTES)
        order.append(sub.tenant)
    return order


@settings(max_examples=40, deadline=None)
@given(weight_list=weights)
def test_longrun_byte_fractions_converge_to_weight_shares(weight_list):
    registry, sched = build(weight_list)
    total_weight = sum(weight_list)
    # Enough rounds that even a weight-0.25 tenant in a 16-weight field
    # has been charged many items.
    rounds = 200 * len(weight_list)
    drain(sched, registry, rounds)
    grand = sum(sched.charged.values())
    assert grand == rounds * ITEM_BYTES
    for i, w in enumerate(weight_list):
        share = w / total_weight
        fraction = sched.charged.get(f"t{i}", 0.0) / grand
        # One item of slack per tenant around the ideal share.
        assert abs(fraction - share) <= share * 0.10 + ITEM_BYTES / grand * 2


@settings(max_examples=40, deadline=None)
@given(weight_list=weights)
def test_virtual_passes_stay_within_one_stride(weight_list):
    """Stride invariant: under backlog, tenants' virtual passes never
    drift apart by more than the largest single stride."""
    registry, sched = build(weight_list)
    max_stride = ITEM_BYTES / min(weight_list)
    for name in [spec.tenant for spec in registry]:
        sched.submit(name, f"{name}-seed", est_bytes=ITEM_BYTES)
    for _ in range(100 * len(weight_list)):
        sub = sched.select()
        sched.charge(sub.tenant, ITEM_BYTES)
        sched.submit(sub.tenant, f"{sub.tenant}-refill", est_bytes=ITEM_BYTES)
        passes = [sched.virtual_pass(n) for n in [spec.tenant for spec in registry]]
        assert max(passes) - min(passes) <= max_stride + 1e-9


@settings(max_examples=25, deadline=None)
@given(weight_list=weights, seed_bytes=st.integers(min_value=0, max_value=10))
def test_schedule_is_reproducible_from_ledgers(weight_list, seed_bytes):
    """Re-seeding a fresh scheduler with the charged ledgers reproduces
    the continuation order — the crash-recovery contract."""
    registry, sched = build(weight_list)
    sched.seed_charges({"t0": seed_bytes * ITEM_BYTES})
    first_half = drain(sched, registry, 50)

    registry2, resumed = build(weight_list)
    resumed.seed_charges({"t0": seed_bytes * ITEM_BYTES})
    replay = drain(resumed, registry2, 50)
    assert replay == first_half

    # And continuing either one yields the same future decisions.
    assert drain(sched, registry, 30) == drain(resumed, registry2, 30)
