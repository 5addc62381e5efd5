"""Run experiment cells: workflows under one policy configuration.

A *cell* is a point on one of the paper's figures: (extra-file size,
default streams per transfer, policy on/off, greedy threshold).  The
runner wires the testbed, plans the augmented Montage workflow with the
paper's Pegasus options (no clustering, cleanup on, job limit 20, five
retries), executes it, and reports :class:`RunMetrics`.

:class:`WorkflowExecution` is the reusable unit: several executions can
share one testbed and one policy service, which is how the multi-workflow
experiments (cross-workflow de-duplication, shared staged files, cleanup
protection) are run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.datacatalog.model import CatalogConfig
from repro.engine import CleanupTool, ClusterScheduler, DAGMan, PegasusTransferTool, StorageTracker
from repro.experiments.environment import Testbed, TestbedParams, build_testbed
from repro.metrics.collectors import RunMetrics
from repro.planner import JobKind, Planner, PlanOptions
from repro.policy import (
    InProcessPolicyClient,
    PolicyConfig,
    PolicyJournal,
    PolicyRefusedError,
    PolicyService,
    ShardedPolicyService,
)
from repro.workflow.dag import Workflow
from repro.workflow.montage import MB, MontageConfig, augmented_montage

__all__ = [
    "EnsembleResult",
    "ExperimentConfig",
    "WorkflowExecution",
    "build_policy_service",
    "execute_workflow",
    "run_cell",
    "run_replicates",
    "run_workflow",
    "run_concurrent_workflows",
    "run_tenant_ensemble",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell (defaults = the paper's Pegasus configuration)."""

    extra_file_mb: float = 100.0
    default_streams: int = 4
    policy: Optional[str] = "greedy"      # None = default Pegasus (no policy)
    threshold: int = 50
    cluster_factor: Optional[int] = None  # paper: no clustering
    cluster_threshold: Optional[int] = None
    priority_algorithm: Optional[str] = None
    order_by: str = "urls"
    job_limit: int = 20                   # paper: local job limit of 20
    retries: int = 5                      # paper: five retries per job
    cleanup: bool = True                  # paper: cleanup enabled
    cluster_scope: str = "job"            # balanced cluster identity
    adaptive: bool = False                # runtime threshold adaptation
    remote_inputs: bool = False           # place ALL inputs on the remote VM
    max_staging_bytes: Optional[float] = None  # storage-constrained staging
    output_site: Optional[str] = None     # stage final outputs to this site
    lease_seconds: Optional[float] = None # grant leases (None = no leasing)
    catalog: Optional[CatalogConfig] = None  # staged-data catalog (None = off)
    retry_backoff: float = 0.0            # base delay between job retries
    n_images: int = 89                    # paper: 89 data staging jobs
    shards: int = 0                       # 0 = single service, N >= 1 = sharded router
    journal_root: Optional[str] = None    # journal here (per shard: <root>/shard-i)
    seed: int = 0
    testbed: TestbedParams = field(default_factory=TestbedParams)

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed)


def policy_config_of(cfg: ExperimentConfig, bed: Testbed) -> PolicyConfig:
    """The service configuration a cell runs its policy under."""
    catalog = cfg.catalog
    if catalog is not None and not catalog.host_site:
        # Inherit the testbed's host->site map so the catalog places
        # replica URLs at the same sites the simulator does.
        catalog = replace(catalog, host_site=dict(bed.host_site))
    return PolicyConfig(
        policy=cfg.policy,
        default_streams=cfg.default_streams,
        max_streams=cfg.threshold,
        cluster_count=cfg.cluster_factor if cfg.policy == "balanced" else None,
        cluster_threshold=cfg.cluster_threshold,
        order_by=cfg.order_by,
        adaptive=cfg.adaptive,
        lease_seconds=cfg.lease_seconds,
        catalog=catalog,
    )


def catalog_census_of(service) -> Optional[dict]:
    """The service's catalog census, or None when the catalog is off."""
    try:
        return service.catalog_census()
    except PolicyRefusedError:
        return None


def cell_workflow(cfg: ExperimentConfig) -> Workflow:
    """The paper's augmented Montage workload at a cell's size."""
    return augmented_montage(
        cfg.extra_file_mb * MB,
        MontageConfig(n_images=cfg.n_images, name=f"montage-{cfg.n_images}img"),
    )


def build_policy_service(
    cfg: ExperimentConfig, bed: Testbed, metrics=None, profiler=None, **kwargs
):
    """The one place an :class:`ExperimentConfig` becomes a policy service.

    ``cfg.shards >= 1`` gives a :class:`ShardedPolicyService` (shard *i*
    journals under ``<cfg.journal_root>/shard-i``), otherwise one
    :class:`PolicyService`, journaled under ``cfg.journal_root`` when that
    is set.  The service runs on the testbed's clock and inherits its
    tracer (``bed.env.tracer``) plus an optional shared
    :class:`~repro.obs.MetricsRegistry` and :class:`~repro.obs.RuleProfiler`;
    ``kwargs`` reach the constructor (the chaos runner's ``breaker_threshold``).
    """
    config = policy_config_of(cfg, bed)
    kwargs.update(
        clock=lambda: bed.env.now, metrics=metrics, tracer=bed.env.tracer,
        profiler=profiler,
    )
    if cfg.shards >= 1:
        return ShardedPolicyService(
            config, num_shards=cfg.shards, journal_root=cfg.journal_root, **kwargs
        )
    journal = PolicyJournal(cfg.journal_root) if cfg.journal_root is not None else None
    return PolicyService(config, journal=journal, **kwargs)


def build_policy_client(
    cfg: ExperimentConfig,
    bed: Testbed,
    metrics=None,
    profiler=None,
) -> Optional[InProcessPolicyClient]:
    """The in-simulation policy client for a cell (None when policy off)."""
    if cfg.policy is None:
        return None
    service = build_policy_service(cfg, bed, metrics=metrics, profiler=profiler)
    return InProcessPolicyClient(service, bed.env, latency=cfg.testbed.policy_latency)


class WorkflowExecution:
    """One planned workflow wired to a testbed, ready to execute.

    Several executions may share a testbed (same fabric/clock) and a
    policy client (same policy memory) — the multi-workflow setting of
    the paper.
    """

    def __init__(
        self,
        cfg: ExperimentConfig,
        workflow: Workflow,
        bed: Testbed,
        policy: Optional[InProcessPolicyClient] = None,
    ):
        self.cfg = cfg
        self.bed = bed
        self.policy = policy
        bed.register_workflow_inputs(workflow, remote_all=cfg.remote_inputs)

        planner = Planner(bed.sites, bed.transformations, bed.replicas)
        self.plan = planner.plan(
            workflow,
            "isi",
            PlanOptions(
                cleanup=cfg.cleanup,
                cluster_factor=cfg.cluster_factor,
                priority_algorithm=cfg.priority_algorithm,
                max_staging_bytes=cfg.max_staging_bytes,
                output_site=cfg.output_site,
            ),
        )
        if self.policy is not None:
            self._register_priorities()

        self.scheduler = ClusterScheduler(
            bed.env, bed.sites.get("isi").slots, submit_overhead=cfg.testbed.submit_overhead
        )
        self.storage = StorageTracker(
            bed.env, site="isi", capacity=cfg.testbed.scratch_capacity
        )
        self.ptt = PegasusTransferTool(
            bed.gridftp,
            policy=self.policy,
            default_streams=cfg.default_streams,
            replicas=bed.replicas,
            host_site=bed.host_site,
            cluster_scope=cfg.cluster_scope,
            storage=self.storage,
        )
        self.cleaner = CleanupTool(
            bed.env,
            policy=self.policy,
            replicas=bed.replicas,
            host_site=bed.host_site,
            storage=self.storage,
        )
        # Keyed by workflow *name* (not the globally-counted plan id) so a
        # given seed reproduces identical runtimes across process lifetimes.
        compute_rng = bed.rng.stream(f"compute:{self.plan.name}")

        def run_compute(workflow_id: str, job):
            runtime = bed.transformations.get(job.transform).sample(compute_rng)
            yield from self.scheduler.run_job(runtime, priority=job.priority)
            for lfn, nbytes in job.output_files:
                self.storage.add(lfn, nbytes)

        def run_staging(workflow_id: str, job):
            yield from self.ptt.execute(workflow_id, job)

        def run_cleanup(workflow_id: str, job):
            yield from self.cleaner.execute(workflow_id, job)

        self.dagman = DAGMan(
            bed.env,
            self.plan,
            runners={
                JobKind.COMPUTE: run_compute,
                JobKind.STAGE_IN: run_staging,
                JobKind.STAGE_OUT: run_staging,
                JobKind.CLEANUP: run_cleanup,
            },
            throttles={JobKind.STAGE_IN: cfg.job_limit},
            retries=cfg.retries,
            retry_backoff=cfg.retry_backoff,
            rng=bed.rng.stream(f"retry:{self.plan.name}"),
        )
        self.result = None

    def _register_priorities(self) -> None:
        if self.cfg.priority_algorithm is None:
            return
        priorities = {
            job.id: job.priority for job in self.plan.jobs.values() if job.priority
        }
        self.policy.service.register_priorities(self.plan.workflow_id, priorities)

    def start(self, delay: float = 0.0):
        """Launch the run as a DES process; returns the process event."""
        def driver():
            if delay > 0:
                yield self.bed.env.timeout(delay)
            self.result = yield self.bed.env.process(
                self.dagman.run(), name=f"dagman-{self.plan.workflow_id}"
            )
            if self.policy is not None:
                # Deliver completion reports / degraded staging the service
                # missed while unreachable (best effort — lease reaping
                # covers whatever still cannot be delivered).
                yield from self.ptt.finalize(self.plan.workflow_id)
                # Without cleanup the staged files stay on disk for later
                # ensemble members to share; keep tracking them.
                self.policy.service.unregister_workflow(
                    self.plan.workflow_id, retain_staged=not self.cfg.cleanup
                )
            return self.result

        return self.bed.env.process(driver(), name=f"exec-{self.plan.workflow_id}")

    def metrics(self) -> RunMetrics:
        """Collect metrics (after the run's process completed)."""
        if self.result is None:
            raise RuntimeError("execution has not finished")
        result, ptt, policy = self.result, self.ptt, self.policy
        self.storage.finish()
        stage_records = list(ptt.records)
        staging_time = (
            max(r.t_end for r in stage_records) - min(r.t_start for r in stage_records)
            if stage_records
            else 0.0
        )
        compute_records = result.by_kind(JobKind.COMPUTE)
        return RunMetrics(
            workflow_id=self.plan.workflow_id,
            success=result.success,
            makespan=result.makespan,
            staging_time=staging_time,
            compute_time=sum(r.duration for r in compute_records),
            bytes_staged=sum(r.bytes_moved for r in stage_records),
            transfers_executed=sum(r.executed for r in stage_records),
            transfers_skipped=sum(r.skipped for r in stage_records),
            transfers_waited=sum(r.waited for r in stage_records),
            peak_streams=dict(self.bed.fabric.peak_streams),
            stream_grants=[
                s
                for r in sorted(stage_records, key=lambda r: r.t_start)
                for s in r.streams_used
            ],
            policy_calls=policy.calls if policy else 0,
            policy_overhead=policy.time_in_calls if policy else 0.0,
            policy_stats=dict(policy.service.stats) if policy else {},
            job_durations={
                kind.value: [r.duration for r in result.by_kind(kind)]
                for kind in JobKind
            },
            peak_footprint=self.storage.peak,
            final_footprint=self.storage.used,
            over_capacity_time=self.storage.over_capacity_time,
        )


def execute_workflow(
    cfg: ExperimentConfig,
    workflow: Workflow,
    bed: Optional[Testbed] = None,
    policy_client: Optional[InProcessPolicyClient] = None,
    metrics=None,
    profiler=None,
) -> WorkflowExecution:
    """Plan + run one workflow (fresh testbed/policy unless provided).

    Returns the *finished* execution, which keeps what a caller may want
    to interrogate: the testbed, the policy client (so the service's
    ``explain`` / ``decision_records``), ``ptt.staged_log``, DAGMan's
    ``result`` and :meth:`WorkflowExecution.metrics`.
    """
    bed = bed or build_testbed(cfg.testbed, seed=cfg.seed)
    if policy_client is None:
        policy_client = build_policy_client(cfg, bed, metrics=metrics, profiler=profiler)
    execution = WorkflowExecution(cfg, workflow, bed, policy_client)
    bed.env.run(until=execution.start())
    return execution


def run_workflow(
    cfg: ExperimentConfig,
    workflow: Workflow,
    bed: Optional[Testbed] = None,
    policy_client: Optional[InProcessPolicyClient] = None,
) -> RunMetrics:
    """Plan + execute one workflow; fresh testbed/policy unless provided."""
    return execute_workflow(cfg, workflow, bed, policy_client).metrics()


def run_concurrent_workflows(
    cfg: ExperimentConfig,
    workflows: Sequence[Workflow],
    stagger: float = 0.0,
    share_policy: bool = True,
) -> list[RunMetrics]:
    """Run several workflows concurrently on one testbed.

    With ``share_policy`` they all consult one Policy Service instance —
    the setting in which cross-workflow de-duplication and cleanup
    protection matter.  ``stagger`` delays each workflow's start by its
    index times that many seconds.
    """
    bed = build_testbed(cfg.testbed, seed=cfg.seed)
    shared = build_policy_client(cfg, bed) if share_policy else None
    executions = []
    processes = []
    for idx, workflow in enumerate(workflows):
        policy = shared if share_policy else build_policy_client(cfg, bed)
        execution = WorkflowExecution(cfg, workflow, bed, policy)
        executions.append(execution)
        processes.append(execution.start(delay=idx * stagger))
    done = bed.env.all_of(processes)
    bed.env.run(until=done)
    return [execution.metrics() for execution in executions]


def run_cell(cfg: ExperimentConfig) -> RunMetrics:
    """Run the paper's augmented Montage workload for one cell."""
    return run_workflow(cfg, cell_workflow(cfg))


def run_replicates(cfg: ExperimentConfig, replicates: int = 3) -> list[RunMetrics]:
    """Run a cell several times with distinct seeds (paper: >= 5 runs)."""
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    return [run_cell(cfg.with_seed(cfg.seed * 1000 + i)) for i in range(replicates)]


@dataclass
class EnsembleResult:
    """What a tenant-aware ensemble run produced.

    ``metrics`` is in submission order (rejected submissions excluded);
    ``admission_order`` is the determinism witness — the same seed must
    reproduce it byte-identically, including after a crash + journal
    recovery (seed the scheduler with the recovered byte ledgers).
    """

    metrics: list[RunMetrics]
    admission_order: list[str]
    completed_order: list[str]
    rejected: list[tuple[str, str, str]]
    tenant_of: dict[str, str]
    tenant_bytes: dict[str, float]
    tenant_shares: dict[str, float]
    #: decision-provenance records from the shared policy service
    #: (empty when policy is off)
    decisions: list = field(default_factory=list)
    #: staged-data catalog census of the shared policy service at end of
    #: run (None when policy or the catalog is off)
    catalog_census: Optional[dict] = None


def run_tenant_ensemble(
    cfg: ExperimentConfig,
    tenants: Sequence,
    submissions: Sequence[tuple[str, Workflow]],
    admission: Optional["AdmissionConfig"] = None,
    scheduler: str = "fair",
    initial_charges: Optional[dict[str, float]] = None,
    tracer=None,
    metrics=None,
    profiler=None,
) -> EnsembleResult:
    """Run a multi-tenant ensemble against one testbed and Policy Service.

    ``tenants`` is a sequence of :class:`~repro.tenancy.TenantSpec` (or
    keyword dicts); ``submissions`` pairs each workflow with its owning
    tenant.  All workflows are planned up front (so plan ids and replica
    decisions depend only on submission order), and every workflow is
    bound to its tenant on the one shared service so the fair-share rules
    can meter aggregate stream budgets.

    ``initial_charges`` seeds the scheduler's per-tenant byte ledgers —
    pass a recovered service's ``bytes_staged`` census to reproduce the
    admission decisions an uninterrupted run would have made.
    """
    from repro.tenancy import (
        AdmissionConfig,
        AdmissionController,
        TenantRegistry,
        TenantSpec,
        make_scheduler,
    )

    admission = admission or AdmissionConfig()
    registry = TenantRegistry()
    for spec in tenants:
        registry.register(spec if isinstance(spec, TenantSpec) else TenantSpec(**spec))

    bed = build_testbed(cfg.testbed, seed=cfg.seed, tracer=tracer)
    shared = build_policy_client(cfg, bed, metrics=metrics, profiler=profiler)
    if shared is not None:
        for spec in registry:
            shared.service.register_tenant(
                spec.tenant,
                weight=spec.weight,
                priority_class=spec.priority_class,
                max_bytes=spec.max_bytes,
                max_streams=spec.max_streams,
                max_concurrent=spec.max_concurrent,
            )

    sched = make_scheduler(scheduler, registry)
    if initial_charges:
        sched.seed_charges(initial_charges)
    probe = None
    if shared is not None and admission.backpressure_high is not None:
        probe = lambda: float(len(shared.service.memory))
    controller = AdmissionController(
        bed.env, sched, admission, tracer=bed.env.tracer, pressure_probe=probe
    )

    executions: dict[int, WorkflowExecution] = {}
    accepted: list = []

    def make_starter(execution: WorkflowExecution):
        def starter(sub):
            yield execution.start()
            return float(sum(r.bytes_moved for r in execution.ptt.records))

        return starter

    for tenant, workflow in submissions:
        execution = WorkflowExecution(cfg, workflow, bed, shared)
        if shared is not None:
            shared.service.bind_workflow(execution.plan.workflow_id, tenant)
        est = float(sum(f.size for f in workflow.input_files()))
        sub = controller.submit(
            tenant, workflow.name, make_starter(execution), est_bytes=est
        )
        if sub is not None:
            executions[sub.seq] = execution
            accepted.append(sub)

    bed.env.run(until=controller.run())

    run_metrics = [executions[sub.seq].metrics() for sub in accepted]
    tenant_bytes: dict[str, float] = {spec.tenant: 0.0 for spec in registry}
    tenant_of: dict[str, str] = {}
    for sub, m in zip(accepted, run_metrics):
        tenant_bytes[sub.tenant] = tenant_bytes.get(sub.tenant, 0.0) + m.bytes_staged
        tenant_of[sub.name] = sub.tenant
    return EnsembleResult(
        metrics=run_metrics,
        admission_order=list(controller.admission_order),
        completed_order=list(controller.completed),
        rejected=list(controller.rejected),
        tenant_of=tenant_of,
        tenant_bytes=tenant_bytes,
        tenant_shares={spec.tenant: registry.share(spec.tenant) for spec in registry},
        decisions=(
            shared.service.decision_records() if shared is not None else []
        ),
        catalog_census=catalog_census_of(shared.service) if shared is not None else None,
    )
