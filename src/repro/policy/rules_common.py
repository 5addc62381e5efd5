"""Table I — policy rules that apply to all transfers.

Each rule is named after its row in the paper's Table I.  The final row
("Sort the list of transfers by the source and destination URLs") is an
ordering concern of the response and is applied by the service when it
assembles advice (see :meth:`PolicyService.submit_transfers`).

Patterns state their equalities as constraints — ``(lfn, dst_url)`` for
dedup/staged-file joins, ``(src_host, dst_host)`` for host-pair joins —
so candidate facts come from the working memory's hash indexes instead
of full type scans, and the guards judge only what is left.  Rule
actions use :meth:`WorkingMemory.lookup` for the same reason.

Salience values come from the named tiers in :mod:`repro.policy.salience`,
which asserts the cross-file ordering invariants (lease expiry before
completion, completion before acknowledgement, de-duplication before
resource creation, ...) at import time; the rule-set linter
(``python -m repro lint``) re-checks them and flags unregistered values.
"""

from __future__ import annotations

from repro.rules import Absent, Pattern, Ref, Rule

from repro.policy import salience
from repro.policy.model import (
    CleanupFact,
    ClusterAllocationFact,
    HostPairFact,
    LeaseSweepFact,
    StagedFileFact,
    TransferFact,
)

__all__ = ["common_rules"]


# -- actions ----------------------------------------------------------------
def _ack_transfer(ctx):
    # A granted delete of the destination is outstanding: the file is about
    # to vanish, so the request waits, before any other row judges it, and
    # the tool asks again once the delete completes.  Looked up here rather
    # than joined by a rule of its own, which every batch would have to sync.
    t = ctx.t
    for c in ctx._session.memory.lookup(CleanupFact, url=t.dst_url):
        if c.status == "in_progress":
            ctx.update(t, status="wait", reason=f"file being deleted by cleanup {c.cid}")
            return
    ctx.update(t, status="new")


def _skip_batch_duplicate(ctx):
    ctx.update(ctx.dup, status="skip_duplicate",
               reason=f"duplicate of transfer {ctx.t.tid} in this request")


def _skip_already_staged(ctx):
    ctx.update(ctx.t, status="skip_staged",
               reason=f"file already staged at {ctx.r.dst_url}")
    if ctx.t.workflow not in ctx.r.users:
        ctx.update(ctx.r, users=ctx.r.users | {ctx.t.workflow})


def _wait_for_in_flight(ctx):
    ctx.update(ctx.t, status="wait", wait_for=ctx.other.tid,
               reason=f"file being staged by transfer {ctx.other.tid}")
    if ctx.t.workflow not in ctx.r.users:
        ctx.update(ctx.r, users=ctx.r.users | {ctx.t.workflow})


def _create_resource(ctx):
    ctx.insert(StagedFileFact(ctx.t.lfn, ctx.t.dst_url, ctx.t.tid, ctx.t.workflow))


def _associate_resource(ctx):
    ctx.update(ctx.r, users=ctx.r.users | {ctx.t.workflow})


def _create_host_pair(ctx):
    next_gid = ctx.globals["group_counter"]
    ctx.globals["group_counter"] = next_gid + 1
    ctx.insert(HostPairFact(ctx.t.src_host, ctx.t.dst_host, next_gid))


def _assign_group(ctx):
    ctx.update(ctx.t, group_id=ctx.pair.group_id)


def _assign_default_streams(ctx):
    ctx.update(ctx.t, requested_streams=ctx.globals["config"].default_streams)


def _ensure_min_stream(ctx):
    ctx.update(ctx.t, requested_streams=1)


def _release(ctx, t):
    """Free the streams a finished transfer held ('Record ... against the
    defined threshold' is undone on completion)."""
    if t.allocated_streams:
        memory = ctx._session.memory
        for pair in memory.lookup(
            HostPairFact, src_host=t.src_host, dst_host=t.dst_host
        ):
            ctx.update(pair, allocated=max(0, pair.allocated - t.allocated_streams))
        for cluster in memory.lookup(
            ClusterAllocationFact,
            src_host=t.src_host,
            dst_host=t.dst_host,
            cluster=t.cluster,
        ):
            ctx.update(
                cluster, allocated=max(0, cluster.allocated - t.allocated_streams)
            )


def _remove_completed(ctx):
    t = ctx.t
    _release(ctx, t)
    for r in ctx._session.memory.lookup(StagedFileFact, lfn=t.lfn, dst_url=t.dst_url):
        if r.status == "staging":
            ctx.update(r, status="staged")
    ctx.retract(t)


def _remove_failed(ctx):
    t = ctx.t
    _release(ctx, t)
    for r in ctx._session.memory.lookup(StagedFileFact, lfn=t.lfn, dst_url=t.dst_url):
        if r.status == "staging" and r.owner_tid == t.tid:
            ctx.retract(r)  # the file never arrived; allow restaging
    ctx.retract(t)


# -- lease actions -------------------------------------------------------------
def _expire_transfer_lease(ctx):
    """An in_progress transfer outlived its lease: its tool is presumed
    dead.  Marking it failed lets the Table I failure rule release both
    the host-pair and cluster stream ledgers and drop the staging
    resource it owned, unwedging any workflow waiting on the file."""
    ctx.globals.setdefault("lease_reaped_transfers", []).append(ctx.t.tid)
    ctx.update(ctx.t, status="failed",
               reason=f"lease expired at t={ctx.sweep.now:g}")


def _expire_cleanup_lease(ctx):
    ctx.globals.setdefault("lease_reaped_cleanups", []).append(ctx.c.cid)
    ctx.retract(ctx.c)


def _retire_sweep(ctx):
    ctx.retract(ctx.sweep)


# -- cleanup actions -----------------------------------------------------------
def _ack_cleanup(ctx):
    ctx.update(ctx.c, status="new")


def _skip_duplicate_cleanup(ctx):
    ctx.update(ctx.c, status="skip_duplicate",
               reason=f"cleanup {ctx.other.cid} already handling {ctx.c.url}")


def _detach_from_resource(ctx):
    ctx.update(ctx.r, users=ctx.r.users - {ctx.c.workflow})
    ctx.update(ctx.c, status="detached")


def _skip_cleanup_in_use(ctx):
    ctx.update(ctx.c, status="skip_in_use",
               reason=f"staged file in use by {sorted(ctx.r.users)}")


def _approve_cleanup(ctx):
    ctx.update(ctx.c, status="approved")


def common_rules() -> list[Rule]:
    """The Table I rule pack (names follow the paper's rows)."""
    return [
        # -- lease expiry: reaper sweeps run before anything else ----------
        Rule(
            "Expire a transfer whose lease deadline has passed",
            salience=salience.LEASE_EXPIRY,
            when=[
                Pattern(LeaseSweepFact, "sweep"),
                Pattern(
                    TransferFact,
                    "t",
                    where=lambda t, b: t.lease_deadline is not None
                    and t.lease_deadline <= b["sweep"].now,
                    status="in_progress",
                ),
            ],
            then=_expire_transfer_lease,
        ),
        Rule(
            "Expire a cleanup whose lease deadline has passed",
            salience=salience.LEASE_EXPIRY,
            when=[
                Pattern(LeaseSweepFact, "sweep"),
                Pattern(
                    CleanupFact,
                    "c",
                    where=lambda c, b: c.lease_deadline is not None
                    and c.lease_deadline <= b["sweep"].now,
                    status="in_progress",
                ),
            ],
            then=_expire_cleanup_lease,
        ),
        Rule(
            "Retire a completed lease sweep",
            salience=salience.SWEEP_RETIRE,
            when=[Pattern(LeaseSweepFact, "sweep")],
            then=_retire_sweep,
        ),
        # -- completion first: free streams before allocating new ones -----
        Rule(
            "Remove a transfer that has completed",
            salience=salience.COMPLETION,
            when=[Pattern(TransferFact, "t", status="done")],
            then=_remove_completed,
        ),
        Rule(
            "Remove a transfer that has failed",
            salience=salience.COMPLETION,
            when=[Pattern(TransferFact, "t", status="failed")],
            then=_remove_failed,
        ),
        # -- insertion acknowledgement --------------------------------------
        Rule(
            "Insert new transfers into policy memory",
            salience=salience.ACK,
            when=[Pattern(TransferFact, "t", status="submitted")],
            then=_ack_transfer,
        ),
        # -- de-duplication ---------------------------------------------------
        Rule(
            "Remove duplicate transfers from the transfer list",
            salience=salience.DEDUP_BATCH,
            when=[
                Pattern(TransferFact, "t", status="new"),
                Pattern(
                    TransferFact,
                    "dup",
                    where=lambda d, b: d.status == "new" and d.tid > b["t"].tid,
                    lfn=Ref("t", "lfn"),
                    dst_url=Ref("t", "dst_url"),
                ),
            ],
            then=_skip_batch_duplicate,
        ),
        Rule(
            "Remove transfers whose file is already staged",
            salience=salience.DEDUP_STAGED,
            when=[
                Pattern(TransferFact, "t", status="new"),
                Pattern(
                    StagedFileFact,
                    "r",
                    where=lambda r, b: r.status == "staged",
                    lfn=Ref("t", "lfn"),
                    dst_url=Ref("t", "dst_url"),
                ),
            ],
            then=_skip_already_staged,
        ),
        Rule(
            "Remove transfers from the transfer list that are already in progress",
            salience=salience.DEDUP_IN_FLIGHT,
            when=[
                Pattern(TransferFact, "t", status="new"),
                Pattern(
                    TransferFact,
                    "other",
                    where=lambda o, b: o.status == "in_progress",
                    lfn=Ref("t", "lfn"),
                    dst_url=Ref("t", "dst_url"),
                ),
                Pattern(
                    StagedFileFact,
                    "r",
                    lfn=Ref("t", "lfn"),
                    dst_url=Ref("t", "dst_url"),
                ),
            ],
            then=_wait_for_in_flight,
        ),
        # -- staged-file resources ---------------------------------------------
        Rule(
            "Create a resource for a new transfer to track the resulting staged file",
            salience=salience.RESOURCE_CREATE,
            when=[
                Pattern(TransferFact, "t", status="new"),
                Absent(StagedFileFact, lfn=Ref("t", "lfn"), dst_url=Ref("t", "dst_url")),
            ],
            then=_create_resource,
        ),
        Rule(
            "Associate a transfer with a resource to track the number of "
            "workflows using the staged file",
            salience=salience.RESOURCE_ASSOCIATE,
            when=[
                Pattern(TransferFact, "t", status="new"),
                Pattern(
                    StagedFileFact,
                    "r",
                    where=lambda r, b: b["t"].workflow not in r.users,
                    lfn=Ref("t", "lfn"),
                    dst_url=Ref("t", "dst_url"),
                ),
            ],
            then=_associate_resource,
        ),
        # -- grouping -------------------------------------------------------------
        Rule(
            "Generate a unique group ID for a source and destination host pair",
            salience=salience.GROUP_CREATE,
            when=[
                Pattern(TransferFact, "t", status="new"),
                Absent(
                    HostPairFact,
                    src_host=Ref("t", "src_host"),
                    dst_host=Ref("t", "dst_host"),
                ),
            ],
            then=_create_host_pair,
        ),
        Rule(
            "Assign the group ID to a transfer based on its source and "
            "destination host pair",
            salience=salience.GROUP_ASSIGN,
            when=[
                Pattern(
                    TransferFact,
                    "t",
                    where=lambda t, b: t.group_id is None,
                    status="new",
                ),
                Pattern(
                    HostPairFact,
                    "pair",
                    src_host=Ref("t", "src_host"),
                    dst_host=Ref("t", "dst_host"),
                ),
            ],
            then=_assign_group,
        ),
        # -- stream defaults ----------------------------------------------------------
        Rule(
            "Assign a default level of parallel streams to a transfer",
            salience=salience.STREAMS_DEFAULT,
            when=[
                Pattern(
                    TransferFact,
                    "t",
                    where=lambda t, b: t.requested_streams is None,
                    status="new",
                )
            ],
            then=_assign_default_streams,
        ),
        Rule(
            "Ensure each transfer has at least one parallel stream assigned",
            salience=salience.STREAMS_MINIMUM,
            when=[
                Pattern(
                    TransferFact,
                    "t",
                    where=lambda t, b: t.requested_streams is not None
                    and t.requested_streams < 1,
                    status="new",
                )
            ],
            then=_ensure_min_stream,
        ),
        # -- cleanups ---------------------------------------------------------------
        Rule(
            "Insert new cleanups into policy memory",
            salience=salience.ACK,
            when=[Pattern(CleanupFact, "c", status="submitted")],
            then=_ack_cleanup,
        ),
        Rule(
            "Remove duplicate cleanup requests that are in progress or completed",
            salience=salience.DEDUP_BATCH,
            when=[
                Pattern(CleanupFact, "c", status="new"),
                Pattern(
                    CleanupFact,
                    "other",
                    where=lambda o, b: o.cid != b["c"].cid
                    and o.status in ("approved", "in_progress"),
                    url=Ref("c", "url"),
                ),
            ],
            then=_skip_duplicate_cleanup,
        ),
        Rule(
            "Detach a transfer from the resource when it requests to cleanup "
            "the resource's staged file",
            salience=salience.CLEANUP_DETACH,
            when=[
                Pattern(CleanupFact, "c", status="new"),
                Pattern(
                    StagedFileFact,
                    "r",
                    where=lambda r, b: b["c"].workflow in r.users,
                    dst_url=Ref("c", "url"),
                ),
            ],
            then=_detach_from_resource,
        ),
        Rule(
            "Remove cleanups from the cleanup list that specify resources that "
            "have other transfers using the staged files",
            salience=salience.CLEANUP_SKIP_IN_USE,
            when=[
                Pattern(
                    CleanupFact,
                    "c",
                    where=lambda c, b: c.status in ("new", "detached"),
                ),
                Pattern(
                    StagedFileFact,
                    "r",
                    where=lambda r, b: len(r.users) > 0,
                    dst_url=Ref("c", "url"),
                ),
            ],
            then=_skip_cleanup_in_use,
        ),
        Rule(
            "Insert new cleanups into policy memory for resources that no "
            "longer have transfers using their staged files",
            salience=salience.CLEANUP_APPROVE,
            when=[
                Pattern(
                    CleanupFact,
                    "c",
                    where=lambda c, b: c.status in ("new", "detached"),
                ),
                Absent(
                    StagedFileFact,
                    where=lambda r, b: len(r.users) > 0,
                    dst_url=Ref("c", "url"),
                ),
            ],
            then=_approve_cleanup,
        ),
    ]
