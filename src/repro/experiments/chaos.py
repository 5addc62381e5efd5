"""Chaos experiments: Montage under injected faults.

The robustness claim these runs back: a Montage workflow under policy
management **completes with the same staged file set** whether or not the
Policy Service crashes mid-run — provided the service journals its policy
memory (:mod:`repro.policy.journal`), grants carry leases, and the client
degrades gracefully while the service is away.

:func:`run_chaos_montage` wires the standard experiment testbed with a
journal-backed service, a retrying/circuit-breaking client, and a
:class:`~repro.des.faults.FaultInjector` driving a :class:`FaultPlan`;
:func:`compare_with_faultless` runs the same cell twice — once clean,
once under the plan — and reports whether the staged file sets match.

:func:`run_shard_chaos_montage` is the sharded variant: the cell runs
against an N-shard :class:`~repro.policy.sharding.ShardedPolicyService`
with per-shard journals, and the plan may crash / slow / partition
individual shards (``ShardCrash`` replays the victim from its own WAL
mid-run).  :func:`compare_sharded_with_single` proves the robustness
claim end to end: the sharded run under shard chaos stages the same
byte-identical file set as a clean single-service run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.des.faults import FaultInjector, FaultPlan
from repro.experiments.environment import build_testbed
from repro.experiments.runner import (
    ExperimentConfig,
    WorkflowExecution,
    catalog_census_of,
    cell_workflow,
    policy_config_of,
)
from repro.metrics.collectors import RunMetrics
from repro.policy import (
    CircuitBreaker,
    InProcessPolicyClient,
    PolicyJournal,
    PolicyService,
    RetryPolicy,
)
from repro.policy.model import CleanupFact, TransferFact
from repro.policy.sharding import ShardedPolicyService

__all__ = [
    "ChaosResult",
    "run_chaos_montage",
    "compare_with_faultless",
    "run_shard_chaos_montage",
    "compare_sharded_with_single",
]


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
    #: backlog replay failures during shard recovery (sharded runs only)
    recovery_errors: list = field(default_factory=list)
    #: decision-provenance records the service(s) held at end of run —
    #: degraded grants appear as synthetic policy-free records
    decisions: list = field(default_factory=list)
    #: staged-data catalog census at end of run (None = catalog off) —
    #: the byte-identity witness for crash+replay equivalence
    catalog_census: Optional[dict] = None


def run_chaos_montage(
    cfg: ExperimentConfig,
    plan: Optional[FaultPlan] = None,
    journal_dir=None,
    retry: Optional[RetryPolicy] = None,
    breaker_threshold: int = 3,
    breaker_reset: float = 60.0,
    tracer=None,
    metrics=None,
    profiler=None,
) -> ChaosResult:
    """Run the augmented-Montage cell under a fault plan.

    With ``journal_dir`` set, the service journals every mutation there
    and each :class:`~repro.des.faults.ServiceOutage` ends with
    ``PolicyService.recover`` from that directory — a true crash+restart.
    Without it, outages model a hang (same process resumes).  ``tracer``
    observes the run including the injector's ``fault``-track events.
    """
    workflow = cell_workflow(cfg)
    bed = build_testbed(cfg.testbed, seed=cfg.seed, tracer=tracer)
    pconfig = policy_config_of(cfg, bed)
    clock = lambda: bed.env.now  # noqa: E731 - tiny closure over the sim clock
    journal = PolicyJournal(journal_dir) if journal_dir is not None else None
    service = PolicyService(
        pconfig, clock=clock, journal=journal,
        metrics=metrics, tracer=tracer, profiler=profiler,
    )
    client = InProcessPolicyClient(
        service,
        bed.env,
        latency=cfg.testbed.policy_latency,
        retry=retry or RetryPolicy(retries=2, base_delay=1.0, max_delay=30.0),
        breaker=CircuitBreaker(
            failure_threshold=breaker_threshold,
            reset_timeout=breaker_reset,
            clock=clock,
        ),
        rng=bed.rng.stream("policy-retry"),
    )

    plan = plan or FaultPlan()
    injector = FaultInjector(bed.env, plan, rng=bed.rng.stream("faults"))
    restart = None
    if journal_dir is not None:
        def restart():
            return PolicyService.recover(
                journal_dir, config=pconfig, clock=clock,
                metrics=metrics, tracer=tracer, profiler=profiler,
            )
    injector.attach_policy(client, restart=restart)
    injector.attach_gridftp(bed.gridftp)

    execution = WorkflowExecution(cfg, workflow, bed, client)
    injector.start()
    process = execution.start()
    bed.env.run(until=process)
    metrics = execution.metrics()

    # Post-run hygiene: one unthrottled sweep past every possible lease
    # deadline retires grants orphaned by crashes and dropped reports.
    live_service = client.service
    horizon = bed.env.now + (cfg.lease_seconds or 0.0) + 1.0
    reaped = (
        live_service.reap_expired(horizon)
        if cfg.lease_seconds is not None
        else {"transfers": [], "cleanups": []}
    )
    leaked = sum(
        1
        for fact_type in (TransferFact, CleanupFact)
        for f in live_service.memory.facts_of(fact_type)
        if f.status == "in_progress"
    )
    return ChaosResult(
        metrics=metrics,
        staged_files=sorted(set(execution.ptt.staged_log)),
        fault_log=list(injector.log),
        degraded_transfers=sum(r.degraded for r in execution.ptt.records),
        reaped=reaped,
        leaked_in_progress=leaked,
        journal_commits=journal.commits if journal is not None else 0,
        decisions=live_service.decision_records(),
        catalog_census=catalog_census_of(live_service),
    )


def run_shard_chaos_montage(
    cfg: ExperimentConfig,
    plan: Optional[FaultPlan] = None,
    num_shards: int = 2,
    journal_root=None,
    breaker_threshold: int = 3,
    breaker_reset: float = 60.0,
    tracer=None,
    metrics=None,
) -> ChaosResult:
    """Run the augmented-Montage cell against a sharded policy fleet.

    Shard *i* journals under ``<journal_root>/shard-i``; a
    :class:`~repro.des.faults.ShardCrash` in ``plan`` destroys that
    shard's working memory mid-run and replays it from its own
    WAL/snapshot while every other shard serves uninterrupted.  The
    returned :class:`ChaosResult` carries the same staged-set /
    leaked-grant evidence as the single-service runs plus the router's
    degraded-request count and final shard health.
    """
    workflow = cell_workflow(cfg)
    bed = build_testbed(cfg.testbed, seed=cfg.seed, tracer=tracer)
    pconfig = policy_config_of(cfg, bed)
    clock = lambda: bed.env.now  # noqa: E731 - tiny closure over the sim clock
    router = ShardedPolicyService(
        pconfig,
        num_shards=num_shards,
        clock=clock,
        journal_root=journal_root,
        metrics=metrics,
        tracer=tracer,
        breaker_threshold=breaker_threshold,
        breaker_reset=breaker_reset,
    )
    client = InProcessPolicyClient(
        router, bed.env, latency=cfg.testbed.policy_latency
    )

    plan = plan or FaultPlan()
    injector = FaultInjector(bed.env, plan, rng=bed.rng.stream("faults"))
    injector.attach_policy(client)
    injector.attach_gridftp(bed.gridftp)
    injector.attach_router(router)

    execution = WorkflowExecution(cfg, workflow, bed, client)
    injector.start()
    process = execution.start()
    bed.env.run(until=process)
    run_metrics = execution.metrics()

    # Post-run hygiene, fleet-wide: reap any grant orphaned by degraded
    # advice or lost completion reports past every possible deadline.
    horizon = bed.env.now + (cfg.lease_seconds or 0.0) + 1.0
    reaped = (
        router.reap_expired(horizon)
        if cfg.lease_seconds is not None
        else {"transfers": [], "cleanups": []}
    )
    leaked = sum(
        1
        for fact_type in (TransferFact, CleanupFact)
        for f in router.memory.facts_of(fact_type)
        if f.status == "in_progress"
    )
    degraded = sum(
        int(value)
        for (_name, _suffix, value) in router._m_degraded.samples()
    )
    return ChaosResult(
        metrics=run_metrics,
        staged_files=sorted(set(execution.ptt.staged_log)),
        fault_log=list(injector.log),
        degraded_transfers=sum(r.degraded for r in execution.ptt.records),
        reaped=reaped,
        leaked_in_progress=leaked,
        journal_commits=sum(
            handle.backend.service.journal.commits
            for handle in router.shards
            if getattr(handle.backend, "service", None) is not None
            and handle.backend.service.journal is not None
        ),
        router_degraded=degraded,
        shard_health=router.shard_health(),
        recovery_errors=list(router.recovery_errors),
        decisions=router.decision_records(),
        catalog_census=catalog_census_of(router),
    )


def compare_sharded_with_single(
    cfg: ExperimentConfig,
    plan: FaultPlan,
    num_shards: int = 2,
    journal_root=None,
    **kwargs,
) -> dict:
    """Clean single-service run vs sharded run under shard chaos.

    The acceptance check for the sharded fleet: byte-identical staged
    sets and zero leaked in-progress grants even when a shard crashes
    and replays mid-run.
    """
    clean = run_chaos_montage(cfg, plan=None, journal_dir=None)
    chaotic = run_shard_chaos_montage(
        cfg, plan=plan, num_shards=num_shards, journal_root=journal_root,
        **kwargs,
    )
    return {
        "clean": clean,
        "chaotic": chaotic,
        "staged_sets_equal": clean.staged_files == chaotic.staged_files,
        "both_succeeded": clean.metrics.success and chaotic.metrics.success,
        "leaked_in_progress": chaotic.leaked_in_progress,
    }


def compare_with_faultless(
    cfg: ExperimentConfig,
    plan: FaultPlan,
    journal_dir=None,
    **kwargs,
) -> dict:
    """Run the cell clean and under ``plan``; compare staged file sets."""
    clean = run_chaos_montage(cfg, plan=None, journal_dir=None, **kwargs)
    chaotic = run_chaos_montage(cfg, plan=plan, journal_dir=journal_dir, **kwargs)
    return {
        "clean": clean,
        "chaotic": chaotic,
        "staged_sets_equal": clean.staged_files == chaotic.staged_files,
        "both_succeeded": clean.metrics.success and chaotic.metrics.success,
    }
