"""Chaos experiments: Montage under injected faults.

The robustness claim these runs back: a Montage workflow under policy
management **completes with the same staged file set** whether or not the
Policy Service — or one shard of a fleet — crashes mid-run, provided the
service journals its policy memory (:mod:`repro.policy.journal`), grants
carry leases, and the client degrades gracefully while the service is away.

:func:`run_chaos_montage` is the one runner: the cell's
:class:`~repro.experiments.runner.ExperimentConfig` says what it runs
against (``shards``, ``journal_root``) and a
:class:`~repro.des.faults.FaultInjector` drives a :class:`FaultPlan`
that may compose service outages, RPC drops, GridFTP storms and — on a
fleet — shard crash / slowdown / partition (``ShardCrash`` replays the
victim from its own WAL mid-run).  :func:`compare_with_faultless` runs
the same cell twice — once clean on one unjournaled service, once under
the plan — and reports whether the staged file sets match.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.des.faults import FaultInjector, FaultPlan
from repro.experiments.environment import build_testbed
from repro.experiments.runner import (
    ExperimentConfig,
    RunMetrics,
    WorkflowExecution,
    build_policy_service,
    catalog_census_of,
    cell_workflow,
)
from repro.obs.hooks import NO_HOOKS, Hooks
from repro.policy import CircuitBreaker, InProcessPolicyClient, PolicyService, RetryPolicy
from repro.policy.model import CleanupFact, TransferFact

__all__ = ["ChaosResult", "run_chaos_montage", "compare_with_faultless"]


@dataclass
class ChaosResult:
    """Outcome of one chaos run."""

    metrics: RunMetrics
    #: sorted, de-duplicated (lfn, dst_url) set the transfer tool staged —
    #: the equivalence metric between faulted and clean runs
    staged_files: list[tuple[str, str]] = field(default_factory=list)
    #: what the injector did, as (sim time, description)
    fault_log: list[tuple[float, str]] = field(default_factory=list)
    #: transfers executed policy-free while the service was unreachable
    degraded_transfers: int = 0
    #: ids reaped by the final lease sweep
    reaped: dict = field(default_factory=dict)
    #: in-progress transfer/cleanup facts still in policy memory at the end
    leaked_in_progress: int = 0
    #: transactions replayed / snapshots taken by the journal (0 without one)
    journal_commits: int = 0
    #: requests the shard router served degraded (sharded runs only)
    router_degraded: int = 0
    #: per-shard health descriptors at end of run (sharded runs only)
    shard_health: list = field(default_factory=list)
    #: owed operations a shard refused on delivery (sharded runs only)
    recovery_errors: list = field(default_factory=list)
    #: operations still owed to a shard at end of run (sharded runs only)
    owed: int = 0
    #: decision-provenance records the service(s) held at end of run —
    #: degraded grants appear as synthetic policy-free records
    decisions: list = field(default_factory=list)
    #: staged-data catalog census at end of run (None = catalog off) —
    #: the byte-identity witness for crash+replay equivalence
    catalog_census: Optional[dict] = None


def run_chaos_montage(
    cfg: ExperimentConfig,
    plan: Optional[FaultPlan] = None,
    breaker_threshold: int = 3,
    hooks: Hooks = NO_HOOKS,
) -> ChaosResult:
    """Run the augmented-Montage cell under a fault plan.

    ``cfg.shards`` and ``cfg.journal_root`` pick what the cell runs
    against.  One service sits behind a retrying, circuit-breaking
    client; with a journal each :class:`~repro.des.faults.ServiceOutage`
    ends with ``PolicyService.recover`` from it — a true crash+restart —
    and without one an outage models a hang (same process resumes).  A
    fleet sits behind the plain client, because the router degrades per
    shard behind its own breakers, and accepts the plan's shard faults.
    The run reports to ``hooks``; its tracer observes the injector's
    ``fault`` track too, and a restarted service reports to them again.
    """
    workflow = cell_workflow(cfg)
    bed = build_testbed(cfg.testbed, seed=cfg.seed, tracer=hooks.tracer)
    fleet = cfg.shards >= 1
    service = build_policy_service(
        cfg, bed, hooks, **({"breaker_threshold": breaker_threshold} if fleet else {}),
    )
    resilience = {} if fleet else dict(
        retry=RetryPolicy(retries=2, base_delay=1.0, max_delay=30.0),
        breaker=CircuitBreaker(
            failure_threshold=breaker_threshold, reset_timeout=60.0, clock=service.clock
        ),
        rng=bed.rng.stream("policy-retry"),
    )
    client = InProcessPolicyClient(
        service, bed.env, latency=cfg.testbed.policy_latency, **resilience
    )

    injector = FaultInjector(bed.env, plan or FaultPlan(), rng=bed.rng.stream("faults"))
    restart = None
    if not fleet and cfg.journal_root is not None:
        def restart():
            return PolicyService.recover(
                cfg.journal_root, config=service.config, clock=service.clock, hooks=hooks,
            )
    injector.attach_policy(client, restart=restart)
    injector.attach_gridftp(bed.gridftp)
    if fleet:
        injector.attach_router(service)

    execution = WorkflowExecution(cfg, workflow, bed, client)
    injector.start()
    bed.env.run(until=execution.start())

    # Post-run hygiene: one unthrottled sweep past every possible lease
    # deadline retires grants orphaned by crashes, degraded advice and
    # dropped reports.  ``live`` is the restarted service after an outage.
    live = client.service
    horizon = bed.env.now + (cfg.lease_seconds or 0.0) + 1.0
    reaped = (
        live.reap_expired(horizon)
        if cfg.lease_seconds is not None
        else {"transfers": [], "cleanups": []}
    )
    leaked = sum(
        1
        for fact_type in (TransferFact, CleanupFact)
        for f in live.memory.facts_of(fact_type)
        if f.status == "in_progress"
    )
    services = [handle.service for handle in service.shards] if fleet else [service]
    return ChaosResult(
        metrics=execution.metrics(),
        staged_files=sorted(set(execution.ptt.staged_log)),
        fault_log=list(injector.log),
        degraded_transfers=sum(r.degraded for r in execution.ptt.records),
        reaped=reaped,
        leaked_in_progress=leaked,
        journal_commits=sum(
            s.journal.commits for s in services if s is not None and s.journal is not None
        ),
        router_degraded=(
            sum(int(value) for (_n, _s, value) in service._m_degraded.samples())
            if fleet
            else 0
        ),
        shard_health=service.shard_health() if fleet else [],
        recovery_errors=list(service.recovery_errors) if fleet else [],
        owed=sum(len(handle.owed) for handle in service.shards) if fleet else 0,
        decisions=live.decision_records(),
        catalog_census=catalog_census_of(live),
    )


def compare_with_faultless(cfg: ExperimentConfig, plan: FaultPlan, **kwargs) -> dict:
    """Run the cell clean and under ``plan``; compare staged file sets.

    The clean side always runs one unjournaled service, so a fleet under
    shard chaos is held to the single service's staged set.
    """
    clean = run_chaos_montage(replace(cfg, shards=0, journal_root=None), **kwargs)
    chaotic = run_chaos_montage(cfg, plan=plan, **kwargs)
    return {
        "clean": clean,
        "chaotic": chaotic,
        "staged_sets_equal": clean.staged_files == chaotic.staged_files,
        "both_succeeded": clean.metrics.success and chaotic.metrics.success,
        "leaked_in_progress": chaotic.leaked_in_progress,
    }
