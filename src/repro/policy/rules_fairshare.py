"""Fair-share rules: per-tenant aggregate parallel-stream budgets.

Multi-tenant deployments register a :class:`TenantFact` per tenant and a
:class:`TenantWorkflowFact` binding each workflow to its owner.  The pack
then enforces an *aggregate* stream budget per tenant across every
workflow and host pair that tenant touches, mirroring the shape of the
Table II greedy pair rules:

* each admitted transfer is stamped with its owning tenant
  (``TENANT_STAMP``);
* before the pair-allocation rules run, the transfer's requested streams
  are clamped to what remains of the tenant's budget and charged against
  the tenant's in-flight ledger (``FAIRSHARE_RESERVE``) — like the greedy
  single-stream rule, an exhausted budget still grants one stream, so one
  tenant's greedy allocations can saturate neither another tenant's pair
  ledgers nor lock it out entirely;
* when the pair threshold grants *less* than was reserved, the difference
  is refunded (``FAIRSHARE_ADJUST``);
* on completion or failure the reservation is released and — for
  successful transfers — the bytes are added to the tenant's staged-byte
  ledger (``FAIRSHARE_RELEASE``, which must fire before the Table I
  completion rules retract the fact).

Because the reserve rule both reads and updates the tenant ledger at fire
time, its activations self-serialize within a batch: every firing changes
``inflight_streams``, so the next activation re-evaluates against the
budget that remains.  A whole batch can therefore never collectively
overshoot the budget by more than the deliberate one-stream floor.

The pack is always composed into the service; without tenant facts in
memory no rule activates and advice is unchanged.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.rules import Fact, Pattern, Ref, Rule

from repro.policy import salience
from repro.policy.model import TransferFact

__all__ = ["TenantFact", "TenantWorkflowFact", "fairshare_rules"]


class TenantFact(Fact):
    """A registered tenant: identity, share, and budgets.

    ``weight`` drives the ensemble manager's weighted-fair-queuing
    admission; ``priority_class`` its strict-priority policy.
    ``max_streams`` caps the tenant's *aggregate* in-flight parallel
    streams (None = unlimited); ``max_bytes`` / ``max_concurrent`` are
    admission-level quotas journaled here so recovery reproduces
    admission decisions.  ``inflight_streams`` and ``bytes_staged`` are
    the ledgers maintained by the fair-share rules.
    """

    def __init__(
        self,
        tenant: str,
        weight: float = 1.0,
        priority_class: int = 0,
        max_bytes: Optional[float] = None,
        max_streams: Optional[int] = None,
        max_concurrent: Optional[int] = None,
    ):
        if not tenant:
            raise ValueError("tenant id must be non-empty")
        if not math.isfinite(weight) or weight <= 0:
            raise ValueError("weight must be finite and > 0")
        if max_bytes is not None and (not math.isfinite(max_bytes) or max_bytes < 0):
            raise ValueError("max_bytes must be finite and >= 0")
        if max_streams is not None and max_streams < 1:
            raise ValueError("max_streams must be >= 1")
        if max_concurrent is not None and max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.tenant = tenant
        self.weight = float(weight)
        self.priority_class = int(priority_class)
        self.max_bytes = None if max_bytes is None else float(max_bytes)
        self.max_streams = max_streams
        self.max_concurrent = max_concurrent
        self.inflight_streams = 0
        self.bytes_staged = 0.0


class TenantWorkflowFact(Fact):
    """Binds one workflow id to the tenant that submitted it."""

    def __init__(self, workflow: str, tenant: str):
        self.workflow = workflow
        self.tenant = tenant


def _stamp_tenant(ctx):
    ctx.update(ctx.t, tenant=ctx.owner.tenant)


def _reserve(ctx):
    t, ten = ctx.t, ctx.ten
    remaining = ten.max_streams - ten.inflight_streams
    # Like the greedy single-stream rule: an exhausted budget still
    # grants one stream so late tenants are never fully starved.
    grant_cap = max(1, min(t.requested_streams, remaining))
    if grant_cap < t.requested_streams:
        ctx.update(
            t,
            requested_streams=grant_cap,
            tenant_streams_reserved=grant_cap,
            reason=(
                f"request trimmed to tenant {ten.tenant!r}'s "
                f"aggregate stream budget"
            ),
        )
    else:
        ctx.update(t, tenant_streams_reserved=grant_cap)
    ctx.update(ten, inflight_streams=ten.inflight_streams + grant_cap)


def _adjust(ctx):
    t, ten = ctx.t, ctx.ten
    refund = t.tenant_streams_reserved - t.allocated_streams
    ctx.update(t, tenant_streams_reserved=t.allocated_streams)
    ctx.update(ten, inflight_streams=max(0, ten.inflight_streams - refund))


def _release_done(ctx):
    t, ten = ctx.t, ctx.ten
    reserved = t.tenant_streams_reserved
    ctx.update(t, tenant_settled=True, tenant_streams_reserved=0)
    ctx.update(
        ten,
        inflight_streams=max(0, ten.inflight_streams - reserved),
        bytes_staged=ten.bytes_staged + t.nbytes,
    )


def _release_failed(ctx):
    t, ten = ctx.t, ctx.ten
    reserved = t.tenant_streams_reserved
    ctx.update(t, tenant_settled=True, tenant_streams_reserved=0)
    ctx.update(
        ten,
        inflight_streams=max(0, ten.inflight_streams - reserved),
    )


def fairshare_rules() -> list[Rule]:
    """The multi-tenant fair-share rule pack (no-op without tenant facts)."""
    return [
        Rule(
            "Stamp the owning tenant onto a newly admitted transfer",
            salience=salience.TENANT_STAMP,
            when=[
                Pattern(
                    TransferFact,
                    "t",
                    where=lambda t, b: t.tenant is None,
                    status="new",
                ),
                Pattern(TenantWorkflowFact, "owner", workflow=Ref("t", "workflow")),
            ],
            then=_stamp_tenant,
        ),
        Rule(
            "Clamp a transfer's streams to its tenant's remaining aggregate "
            "budget and charge the reservation",
            salience=salience.FAIRSHARE_RESERVE,
            when=[
                Pattern(
                    TransferFact,
                    "t",
                    where=lambda t, b: t.tenant is not None
                    and t.requested_streams is not None
                    and t.tenant_streams_reserved == 0,
                    status="new",
                ),
                Pattern(
                    TenantFact,
                    "ten",
                    where=lambda ten, b: ten.max_streams is not None,
                    tenant=Ref("t", "tenant"),
                ),
            ],
            then=_reserve,
        ),
        Rule(
            "Refund the tenant reservation beyond what the pair threshold "
            "actually granted",
            salience=salience.FAIRSHARE_ADJUST,
            when=[
                Pattern(
                    TransferFact,
                    "t",
                    where=lambda t, b: t.allocated_streams is not None
                    and t.tenant_streams_reserved > t.allocated_streams,
                    status="new",
                ),
                Pattern(TenantFact, "ten", tenant=Ref("t", "tenant")),
            ],
            then=_adjust,
        ),
        Rule(
            "Release a completed transfer's tenant reservation and account "
            "its bytes to the tenant's staged-byte ledger",
            salience=salience.FAIRSHARE_RELEASE,
            when=[
                Pattern(
                    TransferFact,
                    "t",
                    where=lambda t, b: t.tenant is not None
                    and not t.tenant_settled,
                    status="done",
                ),
                Pattern(TenantFact, "ten", tenant=Ref("t", "tenant")),
            ],
            then=_release_done,
        ),
        Rule(
            "Release a failed transfer's tenant reservation",
            salience=salience.FAIRSHARE_RELEASE,
            when=[
                Pattern(
                    TransferFact,
                    "t",
                    where=lambda t, b: t.tenant is not None
                    and not t.tenant_settled,
                    status="failed",
                ),
                Pattern(TenantFact, "ten", tenant=Ref("t", "tenant")),
            ],
            then=_release_failed,
        ),
    ]
