"""The planner: maps abstract workflows to executable workflows.

Mirrors the Pegasus planning phase as the paper exercises it:

* compute jobs are mapped onto the execution site;
* for every compute job with workflow-external inputs, a **stage-in job**
  is created ("one stage-in job per compute job", the paper's
  no-clustering configuration) containing one transfer per external input
  not already staged by an earlier stage-in job of this plan;
* source URLs are resolved through the replica catalog (preferring a
  replica at the execution site, in which case no transfer is needed);
* **stage-out jobs** move workflow outputs to the output site;
* with cleanup enabled, a **cleanup job** per scratch file fires once all
  its on-site consumers have finished (Pegasus' data-footprint reduction);
* optional structure-based priorities are computed on the abstract DAG
  and attached to jobs (staging jobs inherit their compute job's
  priority) for the policy service's priority-ordering rules.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from repro.catalogs.replica import ReplicaCatalog
from repro.catalogs.site import SiteCatalog
from repro.catalogs.transformation import TransformationCatalog
from repro.datacatalog.linkcost import LinkCostModel
from repro.planner.clustering import cluster_staging_jobs
from repro.planner.storage_aware import constrain_staging_footprint
from repro.planner.executable import (
    ExecutableJob,
    ExecutableWorkflow,
    JobKind,
    PlanningError,
    TransferSpec,
)
from repro.workflow.dag import Workflow
from repro.workflow.priorities import PRIORITY_ALGORITHMS

__all__ = ["Planner", "PlanOptions", "fresh_plan_ids"]

# Plans are numbered by a process-global sequence so concurrent workflows
# sharing one policy service never collide on workflow ids.
_plan_seq = 0


def _next_plan_seq() -> int:
    global _plan_seq
    _plan_seq += 1
    return _plan_seq


@contextmanager
def fresh_plan_ids():
    """Restart workflow-id numbering from 1 inside the block.

    Traced runs must emit the same event stream in every process, but
    workflow ids carry the process-global plan sequence.  A block under
    this manager numbers its plans 1, 2, ... regardless of planning
    history; on exit the outer sequence resumes past both numbering runs,
    so ids stay unique afterwards.  Only use for self-contained runs
    (fresh testbed and policy service) — ids inside the block may repeat
    ids of workflows planned before it.
    """
    global _plan_seq
    outer = _plan_seq
    _plan_seq = 0
    try:
        yield
    finally:
        _plan_seq = max(outer, _plan_seq)


@dataclass
class PlanOptions:
    """Knobs of one planning run (paper defaults).

    ``cluster_factor=None`` disables data-job clustering (the paper's
    evaluation config); an integer N groups the stage-in jobs of each
    workflow level into N clustered jobs.
    """

    cleanup: bool = True
    cluster_factor: Optional[int] = None
    priority_algorithm: Optional[str] = None
    output_site: Optional[str] = None
    max_staging_bytes: Optional[float] = None
    #: optional link-cost model for stage-in source selection; None keeps
    #: the historical deterministic (site, url) choice
    link_costs: Optional["LinkCostModel"] = None

    def __post_init__(self) -> None:
        if self.cluster_factor is not None and self.cluster_factor < 1:
            raise PlanningError("cluster_factor must be >= 1")
        if self.max_staging_bytes is not None:
            if self.max_staging_bytes <= 0:
                raise PlanningError("max_staging_bytes must be positive")
            if not self.cleanup:
                raise PlanningError("max_staging_bytes requires cleanup=True")
            if self.cluster_factor is not None:
                raise PlanningError(
                    "max_staging_bytes is incompatible with cluster_factor"
                )
        if (
            self.priority_algorithm is not None
            and self.priority_algorithm not in PRIORITY_ALGORITHMS
        ):
            raise PlanningError(
                f"unknown priority algorithm {self.priority_algorithm!r}; "
                f"available: {sorted(PRIORITY_ALGORITHMS)}"
            )


class Planner:
    """Plans abstract workflows against the catalog trio."""

    def __init__(
        self,
        sites: SiteCatalog,
        transformations: TransformationCatalog,
        replicas: ReplicaCatalog,
    ):
        self.sites = sites
        self.transformations = transformations
        self.replicas = replicas

    def plan(
        self,
        workflow: Workflow,
        execution_site: str,
        options: Optional[PlanOptions] = None,
    ) -> ExecutableWorkflow:
        """Produce an executable workflow for ``workflow`` on a site."""
        opts = options or PlanOptions()
        workflow.validate()
        site = self.sites.get(execution_site)
        if site.slots < 1:
            raise PlanningError(f"site {execution_site!r} has no compute slots")
        for transform in workflow.transform_counts():
            if transform not in self.transformations:
                raise PlanningError(f"no transformation catalog entry for {transform!r}")

        priorities: dict[str, int] = {}
        if opts.priority_algorithm:
            priorities = PRIORITY_ALGORITHMS[opts.priority_algorithm](workflow)

        wf_id = f"{workflow.name}#{_next_plan_seq()}"
        plan = ExecutableWorkflow(workflow.name, wf_id)
        plan.cluster_factor = opts.cluster_factor

        produced = {f.lfn for jid in workflow.jobs for f in workflow.jobs[jid].outputs}
        staged: dict[str, str] = {}  # lfn -> stage-in job id that fetches it

        abstract_parents = workflow.adjacency()[1]

        # -- compute + stage-in jobs --------------------------------------
        for job_id in workflow.topological_order():
            job = workflow.jobs[job_id]
            # Inputs read from site scratch: everything except files a
            # pre-existing local replica satisfies without any staging.
            input_files = tuple(
                (f.lfn, f.size)
                for f in job.inputs
                if f.lfn in produced
                or not self.replicas.has(f.lfn, site=execution_site)
            )
            compute = ExecutableJob(
                id=job_id,
                kind=JobKind.COMPUTE,
                transform=job.transform,
                site=execution_site,
                priority=priorities.get(job_id, 0),
                source_jobs=(job_id,),
                output_files=tuple((f.lfn, f.size) for f in job.outputs),
                input_files=input_files,
            )
            plan.add_job(compute)

            transfers: list[TransferSpec] = []
            stage_deps: list[str] = []
            for f in job.inputs:
                if f.lfn in produced:
                    continue  # produced on-site by a parent job
                if f.lfn in staged:
                    stage_deps.append(staged[f.lfn])
                    continue  # an earlier stage-in of this plan fetches it
                if self.replicas.has(f.lfn, site=execution_site):
                    continue  # already local to the site
                candidates = self.replicas.lookup(f.lfn)
                if not candidates:
                    raise PlanningError(
                        f"no replica for input file {f.lfn!r} of job {job_id!r}"
                    )
                if opts.link_costs is not None:
                    # Cheapest link into the execution site wins, with the
                    # model's deterministic (cost, site, url) tie-break.
                    src = opts.link_costs.best(candidates, execution_site)
                else:
                    src = sorted(candidates, key=lambda r: (r.site, r.url))[0]
                transfers.append(
                    TransferSpec(
                        lfn=f.lfn,
                        src_url=src.url,
                        dst_url=site.url_for(f.lfn),
                        nbytes=f.size,
                    )
                )
            if transfers:
                si = ExecutableJob(
                    id=f"stage_in_{job_id}",
                    kind=JobKind.STAGE_IN,
                    site=execution_site,
                    transfers=transfers,
                    priority=priorities.get(job_id, 0),
                    source_jobs=(job_id,),
                )
                plan.add_job(si)
                plan.add_edge(si.id, job_id)
                for t in transfers:
                    staged[t.lfn] = si.id
            for dep in set(stage_deps):
                plan.add_edge(dep, job_id)
            for parent in abstract_parents[job_id]:
                plan.add_edge(parent, job_id)

        # -- stage-out jobs -------------------------------------------------
        output_site_name = opts.output_site or execution_site
        output_site = self.sites.get(output_site_name)
        for f in workflow.output_files():
            producer = workflow.producer_of(f.lfn)
            if output_site_name == execution_site:
                continue  # outputs already live on the execution site
            so = ExecutableJob(
                id=f"stage_out_{f.lfn}",
                kind=JobKind.STAGE_OUT,
                site=execution_site,
                transfers=[
                    TransferSpec(
                        lfn=f.lfn,
                        src_url=site.url_for(f.lfn),
                        dst_url=output_site.url_for(f.lfn),
                        nbytes=f.size,
                    )
                ],
                priority=priorities.get(producer, 0) if producer else 0,
                source_jobs=(producer,) if producer else (),
            )
            plan.add_job(so)
            if producer:
                plan.add_edge(producer, so.id)

        # -- cleanup jobs ----------------------------------------------------
        if opts.cleanup:
            self._add_cleanup_jobs(workflow, plan, site, staged)

        if opts.cluster_factor is not None:
            plan = cluster_staging_jobs(plan, opts.cluster_factor)
        if opts.max_staging_bytes is not None:
            constrain_staging_footprint(plan, opts.max_staging_bytes)

        plan.validate()
        return plan

    def _add_cleanup_jobs(self, workflow, plan, site, staged) -> None:
        """One cleanup job per scratch file, gated on all its users."""
        outputs = {f.lfn for f in workflow.output_files()}
        for lfn, f in sorted(workflow._files.items()):
            waiters: list[str] = []
            consumers = workflow.consumers_of(lfn)
            waiters.extend(consumers)
            producer = workflow.producer_of(lfn)
            if producer and not consumers:
                waiters.append(producer)
            if lfn in outputs and f"stage_out_{lfn}" in plan.jobs:
                waiters.append(f"stage_out_{lfn}")
            if not waiters:
                continue
            cleanup = ExecutableJob(
                id=f"cleanup_{lfn}",
                kind=JobKind.CLEANUP,
                site=site.name,
                cleanup_files=((lfn, site.url_for(lfn)),),
            )
            plan.add_job(cleanup)
            for w in waiters:
                plan.add_edge(w, cleanup.id)
