"""Plan validator: data-flow checks over executable workflow DAGs.

Checks (stable ids; see ``docs/analysis.md``):

========  ========  ==========================================================
P001      error     the plan graph is not a DAG (dependency cycle); the
                    remaining checks are skipped because ancestor queries
                    are meaningless on a cyclic graph.
P002      warning   a stage-in moves a file no compute job consumes — the
                    transfer is wasted bandwidth and scratch space.
P003      error     a cleanup job for a file is not ordered after every
                    consumer of that file — the file can be deleted while
                    a reader still needs it.
P004      error     a file is consumed (compute input or stage-out source)
                    but never produced by a compute job nor fetched by a
                    stage-in — the consumer would find nothing on scratch.
========  ========  ==========================================================

Consumers come from :attr:`~repro.planner.executable.ExecutableJob.input_files`
(compute) and staging transfer sources (stage-out); producers from
``output_files`` (compute) and staging transfer destinations (stage-in).
"""

from __future__ import annotations

from repro.analysis.findings import Report, Severity
from repro.planner.executable import ExecutableWorkflow, JobKind
from repro.workflow.graph import reachable

__all__ = ["lint_plan"]


def _file_flows(plan: ExecutableWorkflow):
    """lfn -> producer job ids / consumer job ids / cleanup job ids."""
    producers: dict[str, set[str]] = {}
    consumers: dict[str, set[str]] = {}
    cleanups: dict[str, set[str]] = {}
    for job_id, job in plan.jobs.items():
        if job.kind == JobKind.COMPUTE:
            for lfn, _size in job.output_files:
                producers.setdefault(lfn, set()).add(job_id)
            for lfn, _size in job.input_files:
                consumers.setdefault(lfn, set()).add(job_id)
        elif job.kind == JobKind.STAGE_IN:
            for t in job.transfers:
                producers.setdefault(t.lfn, set()).add(job_id)
        elif job.kind == JobKind.STAGE_OUT:
            for t in job.transfers:
                consumers.setdefault(t.lfn, set()).add(job_id)
        elif job.kind == JobKind.CLEANUP:
            for lfn, _url in job.cleanup_files:
                cleanups.setdefault(lfn, set()).add(job_id)
    return producers, consumers, cleanups


def lint_plan(plan: ExecutableWorkflow) -> Report:
    """Run every plan check over an executable workflow."""
    report = Report(f"plan:{plan.name}")
    cycle = plan.find_cycle()
    if cycle:
        path = " -> ".join([*cycle, cycle[0]])
        report.add("P001", Severity.ERROR, cycle[0], f"plan dependency cycle: {path}", cycle=cycle)
        return report  # ancestor-based checks are meaningless on a cycle

    producers, consumers, cleanups = _file_flows(plan)
    parents = plan.adjacency()[1]

    # P002: stage-ins whose files feed no compute job.
    for job in plan.by_kind(JobKind.STAGE_IN):
        unused = sorted(
            t.lfn
            for t in job.transfers
            if not any(
                plan.jobs[c].kind == JobKind.COMPUTE
                for c in consumers.get(t.lfn, ())
            )
        )
        if unused:
            report.add(
                "P002",
                Severity.WARNING,
                job.id,
                f"stage-in fetches {', '.join(unused)} but no compute job "
                f"consumes the file(s) — wasted transfer and scratch space",
                files=unused,
            )

    # P003: cleanup ordered before a consumer of its file.
    for lfn, cleanup_ids in sorted(cleanups.items()):
        users = consumers.get(lfn, set())
        for cleanup_id in sorted(cleanup_ids):
            ancestors = reachable(parents, cleanup_id)
            early = sorted(u for u in users if u not in ancestors)
            if early:
                report.add(
                    "P003",
                    Severity.ERROR,
                    cleanup_id,
                    f"cleanup of {lfn!r} is not ordered after consumer(s) "
                    f"{', '.join(early)} — the file can be deleted before "
                    f"its last reader runs",
                    file=lfn,
                    unordered_consumers=early,
                )

    # P004: consumed files with no producer or stage-in.
    for lfn, users in sorted(consumers.items()):
        if lfn in producers:
            continue
        report.add(
            "P004",
            Severity.ERROR,
            sorted(users)[0],
            f"file {lfn!r} is consumed by {', '.join(sorted(users))} but "
            f"never produced by a compute job nor fetched by a stage-in",
            file=lfn,
            consumers=sorted(users),
        )

    return report
