"""Horizontal clustering of data staging jobs (paper Fig. 2).

Pegasus' task clustering groups jobs of the same horizontal workflow level
into a fixed number of clustered jobs (the *clustering factor*).  For data
staging this merges transfer lists: a clustered staging job performs its
transfers serially in one transfer-client session, eliminating the
per-transfer initialization overhead between jobs.

The clustering factor is the number of clusters per level, i.e. the
maximum number of staging jobs (hence concurrent transfer operations) at
one level — the quantity the balanced allocation policy keys on.
"""

from __future__ import annotations

from repro.planner.executable import (
    ExecutableJob,
    ExecutableWorkflow,
    JobKind,
    PlanningError,
)

__all__ = ["cluster_staging_jobs"]


def cluster_staging_jobs(plan: ExecutableWorkflow, factor: int) -> ExecutableWorkflow:
    """Return a new plan with stage-in jobs of each level merged into at
    most ``factor`` clustered jobs.

    Transfers are concatenated in job-id order; edges are the union of the
    members' edges.  Other job kinds are untouched.
    """
    if factor < 1:
        raise PlanningError("clustering factor must be >= 1")
    levels = plan.levels()  # raises on a cycle

    # Group stage-in jobs by level.
    by_level: dict[int, list[str]] = {}
    for job_id, job in sorted(plan.jobs.items()):
        if job.kind == JobKind.STAGE_IN:
            by_level.setdefault(levels[job_id], []).append(job_id)

    member_to_cluster: dict[str, str] = {}
    clusters: dict[str, list[str]] = {}
    for level, members in sorted(by_level.items()):
        n_clusters = min(factor, len(members))
        for idx, job_id in enumerate(members):
            cluster_id = f"clustered_stage_in_l{level}_c{idx % n_clusters}"
            member_to_cluster[job_id] = cluster_id
            clusters.setdefault(cluster_id, []).append(job_id)

    out = ExecutableWorkflow(plan.name, plan.workflow_id)
    out.cluster_factor = factor

    # Non-staging jobs copy over unchanged.
    for job_id, job in plan.jobs.items():
        if job_id not in member_to_cluster:
            out.add_job(job)

    # Clustered staging jobs merge members' transfers/priorities.
    for cluster_id, members in sorted(clusters.items()):
        jobs = [plan.jobs[m] for m in sorted(members)]
        merged = ExecutableJob(
            id=cluster_id,
            kind=JobKind.STAGE_IN,
            site=jobs[0].site,
            transfers=[t for j in jobs for t in j.transfers],
            priority=max(j.priority for j in jobs),
            source_jobs=tuple(s for j in jobs for s in j.source_jobs),
        )
        out.add_job(merged)

    def rename(job_id: str) -> str:
        return member_to_cluster.get(job_id, job_id)

    for parent, child in plan.edges():
        new_parent, new_child = rename(parent), rename(child)
        if new_parent != new_child:
            out.add_edge(new_parent, new_child)

    out.validate()
    return out
