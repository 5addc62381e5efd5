"""Table III — balanced (per-cluster) stream-allocation rules.

The balanced algorithm divides the host-pair stream budget evenly across
the workflow's transfer clusters (the Pegasus clustering factor equals the
number of concurrent transfer operations).  Each cluster's transfers are
granted their requested streams until that *cluster's* threshold is
exceeded; later transfers on the same cluster get a single stream.
Because every cluster has a reserved share, a cluster whose requests
arrive late is not starved by earlier clusters (unlike greedy).

The per-cluster threshold ("Retrieve the parallel streams threshold
defined for a single cluster between a source and destination host" /
"Retrieve the number of clusters used in the system") comes from
:meth:`~repro.policy.model.PolicyConfig.per_cluster_threshold` via the
session globals.
"""

from __future__ import annotations

from repro.rules import Absent, Pattern, Ref, Rule

from repro.policy import salience
from repro.policy.model import ClusterAllocationFact, TransferFact

__all__ = ["balanced_rules"]


def _needs_allocation(t, bindings) -> bool:
    return (
        t.allocated_streams is None
        and t.requested_streams is not None
        and t.group_id is not None
        and t.cluster is not None
    )


def _threshold(bindings) -> int:
    return bindings["_globals"]["config"].per_cluster_threshold()


def _create_cluster_allocation(ctx):
    t = ctx.t
    ctx.insert(ClusterAllocationFact(t.src_host, t.dst_host, t.cluster))


def _grant_full(ctx):
    grant = ctx.t.requested_streams
    ctx.update(ctx.t, allocated_streams=grant)
    ctx.update(ctx.alloc, allocated=ctx.alloc.allocated + grant)


def _grant_partial(ctx):
    grant = ctx.globals["config"].per_cluster_threshold() - ctx.alloc.allocated
    ctx.update(ctx.t, allocated_streams=grant,
               reason="request trimmed to the cluster's stream share")
    ctx.update(ctx.alloc, allocated=ctx.alloc.allocated + grant)


def _grant_single(ctx):
    ctx.update(ctx.t, allocated_streams=1,
               reason="cluster stream share exhausted; allocated a single stream")
    ctx.update(ctx.alloc, allocated=ctx.alloc.allocated + 1)


def balanced_rules() -> list[Rule]:
    """The Table III rule pack."""
    return [
        Rule(
            "Retrieve the parallel streams threshold defined for a single "
            "cluster between a source and destination host",
            salience=salience.THRESHOLD_RETRIEVE,
            when=[
                Pattern(TransferFact, "t", where=_needs_allocation, status="new"),
                Absent(
                    ClusterAllocationFact,
                    src_host=Ref("t", "src_host"),
                    dst_host=Ref("t", "dst_host"),
                    cluster=Ref("t", "cluster"),
                ),
            ],
            then=_create_cluster_allocation,
        ),
        Rule(
            "Enforce the max number of parallel streams on a transfer that "
            "fits within its cluster's share",
            salience=salience.ALLOCATION,
            when=[
                Pattern(TransferFact, "t", where=_needs_allocation, status="new"),
                Pattern(
                    ClusterAllocationFact,
                    "alloc",
                    where=lambda a, b: a.allocated + b["t"].requested_streams
                    <= _threshold(b),
                    src_host=Ref("t", "src_host"),
                    dst_host=Ref("t", "dst_host"),
                    cluster=Ref("t", "cluster"),
                ),
            ],
            then=_grant_full,
        ),
        Rule(
            "Enforce the max number of parallel streams on a transfer that "
            "violates the number of available streams below the threshold on "
            "its cluster",
            salience=salience.ALLOCATION,
            when=[
                Pattern(TransferFact, "t", where=_needs_allocation, status="new"),
                Pattern(
                    ClusterAllocationFact,
                    "alloc",
                    where=lambda a, b: a.allocated < _threshold(b)
                    and a.allocated + b["t"].requested_streams > _threshold(b),
                    src_host=Ref("t", "src_host"),
                    dst_host=Ref("t", "dst_host"),
                    cluster=Ref("t", "cluster"),
                ),
            ],
            then=_grant_partial,
        ),
        Rule(
            "Record the number of parallel streams used by a transfer against "
            "the defined cluster threshold (share exhausted: single stream)",
            salience=salience.ALLOCATION,
            when=[
                Pattern(TransferFact, "t", where=_needs_allocation, status="new"),
                Pattern(
                    ClusterAllocationFact,
                    "alloc",
                    where=lambda a, b: a.allocated >= _threshold(b),
                    src_host=Ref("t", "src_host"),
                    dst_host=Ref("t", "dst_host"),
                    cluster=Ref("t", "cluster"),
                ),
            ],
            then=_grant_single,
        ),
    ]
