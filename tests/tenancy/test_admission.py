"""Tests of the admission controller as a DES process."""

import pytest

from repro.des.core import Environment
from repro.obs import Tracer
from repro.tenancy import (
    AdmissionConfig,
    AdmissionController,
    FairShareScheduler,
    FifoScheduler,
    TenantRegistry,
    TenantSpec,
)


def registry(**overrides):
    reg = TenantRegistry()
    reg.register(TenantSpec("bronze", weight=1, **overrides.get("bronze", {})))
    reg.register(TenantSpec("silver", weight=2, **overrides.get("silver", {})))
    reg.register(TenantSpec("gold", weight=4, **overrides.get("gold", {})))
    return reg


def make_starter(env, duration, nbytes, built=None):
    """A starter that runs for ``duration`` and stages ``nbytes``."""

    def starter(sub):
        if built is not None:
            built.append(sub.name)
        yield env.timeout(duration)
        return nbytes

    return starter


def test_config_validation():
    with pytest.raises(ValueError):
        AdmissionConfig(max_concurrent=0)
    with pytest.raises(ValueError):
        AdmissionConfig(backpressure_high=10.0)  # missing low
    with pytest.raises(ValueError):
        AdmissionConfig(backpressure_high=5.0, backpressure_low=9.0)
    with pytest.raises(ValueError):
        AdmissionConfig(poll_interval=0)


def test_respects_global_slot_count():
    env = Environment()
    controller = AdmissionController(
        env, FifoScheduler(registry()), AdmissionConfig(max_concurrent=2)
    )
    peak = []

    def starter(sub):
        peak.append(controller._inflight)
        yield env.timeout(10)
        return 0.0

    for i in range(5):
        controller.submit("gold", f"wf{i}", starter)
    env.run(until=controller.run())
    assert len(controller.completed) == 5
    assert max(peak) <= 2


def test_per_tenant_cap_does_not_block_others():
    env = Environment()
    reg = registry(gold={"max_concurrent": 1})
    controller = AdmissionController(
        env, FifoScheduler(reg), AdmissionConfig(max_concurrent=3)
    )
    controller.submit("gold", "g0", make_starter(env, 10, 0))
    controller.submit("gold", "g1", make_starter(env, 10, 0))
    controller.submit("bronze", "b0", make_starter(env, 1, 0))
    env.run(until=controller.run())
    # gold's second workflow waits for its cap, so bronze overtakes it.
    assert controller.admission_order == ["g0", "b0", "g1"]


def test_starters_run_lazily_at_admission():
    """Queued submissions hold no resources: the starter (which builds the
    policy client in the experiment runner) runs only when a slot opens."""
    env = Environment()
    built = []
    controller = AdmissionController(
        env, FifoScheduler(registry()), AdmissionConfig(max_concurrent=1)
    )
    for i in range(3):
        controller.submit("gold", f"wf{i}", make_starter(env, 5, 0, built))
    assert built == []  # nothing constructed at submission time
    process = controller.run()
    env.run(until=env.timeout(6))
    assert built == ["wf0", "wf1"]  # second admitted only after the first ends
    env.run(until=process)
    assert built == ["wf0", "wf1", "wf2"]


def test_quota_rejection_recorded_and_run_continues():
    env = Environment()
    reg = registry(bronze={"max_bytes": 50.0})
    controller = AdmissionController(env, FairShareScheduler(reg))
    assert controller.submit("bronze", "big", make_starter(env, 1, 0),
                             est_bytes=100) is None
    assert controller.submit("bronze", "small", make_starter(env, 1, 40),
                             est_bytes=40) is not None
    env.run(until=controller.run())
    assert [r[1] for r in controller.rejected] == ["big"]
    assert controller.completed == ["small"]


def test_fair_share_charges_estimates_at_admission():
    """A burst of free slots spreads across tenants immediately — the
    estimate is charged when admitted, not when the workflow finishes."""
    env = Environment()
    controller = AdmissionController(
        env, FairShareScheduler(registry()), AdmissionConfig(max_concurrent=7)
    )
    for tenant in ("bronze", "silver", "gold"):
        for i in range(4):
            controller.submit(tenant, f"{tenant[0]}{i}",
                              make_starter(env, 10, 100), est_bytes=100)
    env.run(until=controller.run())
    first_round = controller.admission_order[:7]
    assert sum(n.startswith("b") for n in first_round) == 1
    assert sum(n.startswith("s") for n in first_round) == 2
    assert sum(n.startswith("g") for n in first_round) == 4


def test_backpressure_pauses_until_low_watermark():
    env = Environment()
    pressure = {"value": 0.0}
    controller = AdmissionController(
        env,
        FifoScheduler(registry()),
        AdmissionConfig(max_concurrent=2, backpressure_high=10.0,
                        backpressure_low=2.0, poll_interval=1.0),
        pressure_probe=lambda: pressure["value"],
    )

    def starter(sub):
        pressure["value"] += 8.0  # each running workflow adds pressure
        yield env.timeout(20)
        pressure["value"] -= 8.0
        return 0.0

    for i in range(3):
        controller.submit("gold", f"wf{i}", starter)
    process = controller.run()
    env.run(until=env.timeout(5))
    # Two admitted (pressure 16 > high) — the third waits even though a
    # slot is free.
    assert controller.admission_order == ["wf0", "wf1"]
    env.run(until=process)
    assert controller.admission_order == ["wf0", "wf1", "wf2"]


def test_backpressure_deadlock_guard_admits_when_idle():
    """With nothing running, waiting cannot relieve pressure — admit anyway."""
    env = Environment()
    controller = AdmissionController(
        env,
        FifoScheduler(registry()),
        AdmissionConfig(max_concurrent=1, backpressure_high=1.0,
                        backpressure_low=0.5, poll_interval=1.0),
        pressure_probe=lambda: 100.0,  # permanently above the watermark
    )
    controller.submit("gold", "wf0", make_starter(env, 2, 0))
    env.run(until=controller.run())
    assert controller.completed == ["wf0"]


def test_tracer_event_stream():
    env_tracer = Tracer()
    env = Environment(tracer=env_tracer)
    reg = registry(bronze={"max_bytes": 10.0})
    controller = AdmissionController(env, FairShareScheduler(reg))
    controller.submit("bronze", "big", make_starter(env, 1, 0), est_bytes=50)
    controller.submit("gold", "g0", make_starter(env, 3, 123.0))
    env.run(until=controller.run())
    names = [e["name"] for e in env_tracer.by_category("tenant")]
    assert "tenant.reject" in names
    assert "tenant.submit" in names
    assert "tenant.admit" in names
    assert "tenant.queue" in names
    spans = [e for e in env_tracer.by_category("tenant") if e["ph"] == "X"]
    assert len(spans) == 1
    assert spans[0]["name"] == "tenant.run"
    assert spans[0]["track"] == "tenant:gold"
    assert spans[0]["args"]["bytes_staged"] == 123.0
    assert spans[0]["dur"] == 3.0
