"""Transfer/cleanup leases: expired grants are reaped and release streams.

A client that crashes after being granted a transfer must not pin its
stream allocation forever: the lease reaper marks the grant failed, which
releases both the host-pair ledger (greedy) and the per-cluster ledger
(balanced), and lets workflows that were waiting on the dead transfer
resubmit.
"""

import pytest

from repro.policy import PolicyConfig, PolicyService
from repro.policy.model import ClusterAllocationFact, HostPairFact

from tests.conftest import counter
from tests.policy.conftest import spec


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def leased_service(policy="greedy", lease=60.0, **kw):
    clock = FakeClock()
    config = PolicyConfig(
        policy=policy,
        default_streams=4,
        max_streams=8,
        lease_seconds=lease,
        **kw,
    )
    return PolicyService(config, clock=clock), clock


def test_granted_advice_carries_lease_deadline():
    service, clock = leased_service()
    clock.now = 100.0
    advice = service.submit_transfers("wf1", "j1", [spec("a")])
    assert advice[0].action == "transfer"
    assert advice[0].lease_deadline == pytest.approx(160.0)


def test_no_lease_config_means_no_deadline(greedy_service):
    advice = greedy_service.submit_transfers("wf1", "j1", [spec("a")])
    assert advice[0].lease_deadline is None


def test_reap_marks_failed_and_releases_host_pair_streams():
    service, clock = leased_service()
    # Fill the 8-stream pair threshold: two full 4-stream grants, then the
    # over-threshold fallback of a single stream.
    advice = service.submit_transfers("wf1", "j1", [spec("a"), spec("b"), spec("c")])
    assert [a.streams for a in advice] == [4, 4, 1]

    clock.now = 61.0
    reaped = service.reap_expired()
    assert sorted(reaped["transfers"]) == sorted(a.tid for a in advice)
    for a in advice:
        assert service.transfer_state(a.tid) == "failed"

    pair = service.memory.facts_of(HostPairFact)[0]
    assert pair.allocated == 0
    # Freed streams are immediately grantable at full width again.
    retry = service.submit_transfers("wf1", "j2", [spec("d"), spec("e")])
    assert [a.streams for a in retry] == [4, 4]
    assert counter(service, "repro_policy_transfers_total", event="reaped") == 3


def test_reap_releases_cluster_ledger_under_balanced():
    service, clock = leased_service(policy="balanced", cluster_count=2)
    advice = service.submit_transfers(
        "wf1", "j1", [spec("a", cluster="c1"), spec("b", cluster="c1")]
    )
    # Per-cluster share is 8/2 = 4 streams: one full grant, then the
    # single-stream fallback.
    assert [a.streams for a in advice] == [4, 1]

    clock.now = 61.0
    service.reap_expired()
    allocations = service.memory.facts_of(ClusterAllocationFact)
    assert all(c.allocated == 0 for c in allocations)
    retry = service.submit_transfers("wf1", "j2", [spec("c", cluster="c1")])
    assert retry[0].streams == 4


def test_reap_unblocks_waiting_workflow():
    service, clock = leased_service()
    first = service.submit_transfers("wf1", "j1", [spec("a")])
    assert first[0].action == "transfer"
    other = service.submit_transfers("wf2", "j2", [spec("a")])
    assert other[0].action == "wait"
    assert other[0].wait_for == first[0].tid

    # wf1's tool dies; the lease expires.
    clock.now = 61.0
    service.reap_expired()
    # The dead transfer now reads "failed" and the resource is gone, so
    # the waiting workflow's poll tells it to resubmit — and the
    # resubmission is granted.
    assert service.transfer_state(first[0].tid) == "failed"
    assert service.staging_state("a", "gsiftp://obelix/scratch/a") == "unknown"
    retry = service.submit_transfers("wf2", "j2", [spec("a")])
    assert retry[0].action == "transfer"


def test_expired_cleanup_grant_is_dropped():
    service, clock = leased_service()
    advice = service.submit_transfers("wf1", "j1", [spec("a")])
    service.complete_transfers(done=[advice[0].tid])
    cleanups = service.submit_cleanups(
        "wf1", "clean", [("a", "gsiftp://obelix/scratch/a")]
    )
    assert cleanups[0].action == "delete"
    assert cleanups[0].lease_deadline == pytest.approx(60.0)

    clock.now = 61.0
    reaped = service.reap_expired()
    assert reaped["cleanups"] == [cleanups[0].cid]
    assert counter(service, "repro_policy_cleanups_total", event="reaped") == 1
    # The file is deletable again by a fresh cleanup request.
    again = service.submit_cleanups(
        "wf1", "clean2", [("a", "gsiftp://obelix/scratch/a")]
    )
    assert again[0].action == "delete"


def test_unexpired_leases_survive_a_sweep():
    service, clock = leased_service()
    advice = service.submit_transfers("wf1", "j1", [spec("a")])
    clock.now = 59.0
    reaped = service.reap_expired()
    assert reaped == {"transfers": [], "cleanups": []}
    assert service.transfer_state(advice[0].tid) == "in_progress"


def test_sweep_piggybacks_on_service_calls():
    service, clock = leased_service()  # sweeps at most every 60 / 4 = 15 s
    advice = service.submit_transfers("wf1", "j1", [spec("a")])
    clock.now = 61.0
    # An ordinary query triggers the reap — no explicit reap_expired call.
    assert service.transfer_state(advice[0].tid) == "failed"
    assert counter(service, "repro_policy_transfers_total", event="reaped") == 1


def test_sweep_throttle_limits_reap_frequency():
    service, clock = leased_service()  # lease 60 s: deadline t=60, throttle 15 s
    service.submit_transfers("wf1", "j1", [spec("a")])
    clock.now = 50.0
    service.staging_state("zzz", "gsiftp://nowhere/zzz")  # sweeps, arms t=65
    clock.now = 61.0  # lease expired, but inside the throttle window
    service.staging_state("zzz", "gsiftp://nowhere/zzz")
    assert counter(service, "repro_policy_transfers_total", event="reaped") == 0
    clock.now = 65.0
    service.staging_state("zzz", "gsiftp://nowhere/zzz")
    assert counter(service, "repro_policy_transfers_total", event="reaped") == 1


def test_lease_reaping_with_journal_recovery(tmp_path):
    """Reaps are durable: a recovered service remembers reaped failures."""
    from repro.policy import PolicyJournal

    clock = FakeClock()
    config = PolicyConfig(policy="greedy", max_streams=8, lease_seconds=60.0)
    service = PolicyService(
        config, clock=clock, journal=PolicyJournal(tmp_path / "j")
    )
    advice = service.submit_transfers("wf1", "j1", [spec("a")])
    clock.now = 61.0
    service.reap_expired()

    recovered = PolicyService.recover(tmp_path / "j", config=config, clock=clock)
    assert recovered.transfer_state(advice[0].tid) == "failed"
