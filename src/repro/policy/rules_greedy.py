"""Table II — greedy stream-allocation rules.

The greedy algorithm allocates each transfer its requested number of
parallel streams until the host-pair threshold is exceeded:

* if the full request fits under the threshold, grant it;
* if the request would cross the threshold, grant only the streams that
  remain below it;
* once the threshold is reached, grant a single stream (so late transfers
  are never starved);
* record every grant against the pair's allocation (freed again by the
  completion rules in Table I).

Transfers are allocated in arrival (fact-id) order, matching the service's
FIFO processing of each request batch.
"""

from __future__ import annotations

from repro.rules import Pattern, Ref, Rule

from repro.policy import salience
from repro.policy.model import HostPairFact, TransferFact

__all__ = ["greedy_rules"]


def _needs_allocation(t, bindings) -> bool:
    return (
        t.allocated_streams is None
        and t.requested_streams is not None
        and t.group_id is not None
    )


def _retrieve_threshold(ctx):
    config = ctx.globals["config"]
    ctx.update(
        ctx.pair, threshold=config.threshold_for(ctx.pair.src_host, ctx.pair.dst_host)
    )


def _grant_full(ctx):
    grant = ctx.t.requested_streams
    ctx.update(ctx.t, allocated_streams=grant)
    ctx.update(ctx.pair, allocated=ctx.pair.allocated + grant)


def _grant_partial(ctx):
    grant = ctx.pair.threshold - ctx.pair.allocated
    ctx.update(ctx.t, allocated_streams=grant,
               reason="request trimmed to stay within the streams threshold")
    ctx.update(ctx.pair, allocated=ctx.pair.allocated + grant)


def _grant_single(ctx):
    ctx.update(ctx.t, allocated_streams=1,
               reason="streams threshold reached; allocated a single stream")
    ctx.update(ctx.pair, allocated=ctx.pair.allocated + 1)


def greedy_rules() -> list[Rule]:
    """The Table II rule pack."""
    return [
        Rule(
            "Retrieve the parallel streams threshold defined between a source "
            "and destination host",
            salience=salience.THRESHOLD_RETRIEVE,
            when=[
                Pattern(HostPairFact, "pair", where=lambda p, b: p.threshold is None),
            ],
            then=_retrieve_threshold,
        ),
        Rule(
            "Enforce the maximum number of parallel streams on a transfer",
            salience=salience.ALLOCATION,
            when=[
                Pattern(TransferFact, "t", where=_needs_allocation, status="new"),
                Pattern(
                    HostPairFact,
                    "pair",
                    where=lambda p, b: p.threshold is not None
                    and p.allocated + b["t"].requested_streams <= p.threshold,
                    src_host=Ref("t", "src_host"),
                    dst_host=Ref("t", "dst_host"),
                ),
            ],
            then=_grant_full,
        ),
        Rule(
            "If the number of requested streams would exceed the maximum "
            "streams threshold, then allocate only the number of streams that "
            "does not exceed the threshold",
            salience=salience.ALLOCATION,
            when=[
                Pattern(TransferFact, "t", where=_needs_allocation, status="new"),
                Pattern(
                    HostPairFact,
                    "pair",
                    where=lambda p, b: p.threshold is not None
                    and p.allocated < p.threshold
                    and p.allocated + b["t"].requested_streams > p.threshold,
                    src_host=Ref("t", "src_host"),
                    dst_host=Ref("t", "dst_host"),
                ),
            ],
            then=_grant_partial,
        ),
        Rule(
            "If the threshold has been reached or exceeded, allocate one "
            "stream for the new transfer",
            salience=salience.ALLOCATION,
            when=[
                Pattern(TransferFact, "t", where=_needs_allocation, status="new"),
                Pattern(
                    HostPairFact,
                    "pair",
                    where=lambda p, b: p.threshold is not None
                    and p.allocated >= p.threshold,
                    src_host=Ref("t", "src_host"),
                    dst_host=Ref("t", "dst_host"),
                ),
            ],
            then=_grant_single,
        ),
    ]
