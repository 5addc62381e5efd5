"""Storage-constrained staging (the ref [15] problem, simplified).

The paper's group previously studied "scheduling data-intensive workflows
onto storage-constrained distributed resources" (Ramakrishnan et al.,
CCGrid'07): when the execution site's scratch cannot hold the whole input
set at once, staging must be serialized against cleanup so the plan stays
*feasible*.

:func:`constrain_staging_footprint` post-processes an executable plan
(cleanup must be enabled) so that the bytes of staged **external inputs**
resident on scratch never exceed a budget:

1. Each stage-in job is a *unit* (it already bundles all external inputs
   of one compute job, so a unit never straddles batches — this is what
   makes the added edges provably acyclic).
2. Files consumed by more than one compute job (e.g. a shared calibration
   header) are **long-lived**: they stay resident for most of the run, so
   their bytes are reserved off the budget and their cleanups are never
   used as gates.
3. Units are greedily packed, in topological order, into batches whose
   exclusive (non-shared) bytes fit the remaining budget.
4. Every unit of batch *k+1* is gated on the cleanup jobs of batch *k*'s
   exclusive files: batch *k*'s staged data is deleted before batch *k+1*
   starts staging, so at most one batch (plus the shared reserve) is ever
   resident.

The budget covers staged external inputs; intermediate files are governed
by the ordinary cleanup jobs the planner already emits.

Trade-off: feasibility costs staging parallelism — with a tight budget the
batches serialize and the makespan grows (benchmark A14 quantifies it).
"""

from __future__ import annotations

from repro.planner.executable import ExecutableWorkflow, JobKind, PlanningError

__all__ = ["constrain_staging_footprint"]


def constrain_staging_footprint(
    plan: ExecutableWorkflow, capacity: float
) -> ExecutableWorkflow:
    """Add gating edges so staged-input bytes on scratch never exceed
    ``capacity``.  Mutates and returns ``plan``.

    Raises :class:`PlanningError` when the plan has no cleanup jobs to
    gate on, or when any single stage-in unit (plus the shared-file
    reserve) cannot fit the budget.
    """
    if capacity <= 0:
        raise PlanningError("capacity must be positive")
    plan.validate()
    stage_ins = plan.by_kind(JobKind.STAGE_IN)
    if not stage_ins:
        return plan
    cleanup_by_lfn = {
        lfn: job.id
        for job in plan.by_kind(JobKind.CLEANUP)
        for lfn, _url in job.cleanup_files
    }

    # Classify staged files: shared (multiple consumer compute jobs) files
    # are long-lived residents; exclusive files die with their unit's batch.
    # Consumers are the cleanup job's parents (the planner gates each
    # file's cleanup on every consumer).
    consumer_count: dict[str, int] = {}
    for si in stage_ins:
        for t in si.transfers:
            cleanup_id = cleanup_by_lfn.get(t.lfn)
            if cleanup_id is None:
                raise PlanningError(
                    f"storage-constrained staging requires cleanup jobs; "
                    f"no cleanup for staged file {t.lfn!r}"
                )
            consumer_count[t.lfn] = len(plan.parents(cleanup_id))

    shared_reserve = 0.0
    unit_bytes: dict[str, float] = {}
    seen_shared: set[str] = set()
    for si in stage_ins:
        exclusive = 0.0
        for t in si.transfers:
            if consumer_count[t.lfn] > 1:
                if t.lfn not in seen_shared:
                    shared_reserve += t.nbytes
                    seen_shared.add(t.lfn)
            else:
                exclusive += t.nbytes
        unit_bytes[si.id] = exclusive

    budget = capacity - shared_reserve
    worst = max(unit_bytes.values(), default=0.0)
    if budget <= 0 or worst > budget:
        raise PlanningError(
            f"infeasible staging budget: capacity {capacity:.3g} B, "
            f"shared-file reserve {shared_reserve:.3g} B, largest staging "
            f"unit {worst:.3g} B"
        )

    # Greedy batching in topological order.
    order = {jid: i for i, jid in enumerate(plan.topological_order())}
    units = sorted(stage_ins, key=lambda j: order[j.id])
    batches: list[list] = [[]]
    batch_load = 0.0
    for unit in units:
        need = unit_bytes[unit.id]
        if batches[-1] and batch_load + need > budget:
            batches.append([])
            batch_load = 0.0
        batches[-1].append(unit)
        batch_load += need

    # Gate batch k+1's units on batch k's exclusive-file cleanups.
    for prev, nxt in zip(batches, batches[1:]):
        gates = [
            cleanup_by_lfn[t.lfn]
            for unit in prev
            for t in unit.transfers
            if consumer_count[t.lfn] == 1
        ]
        for unit in nxt:
            for gate in gates:
                plan.add_edge(gate, unit.id)

    plan.validate()
    return plan
