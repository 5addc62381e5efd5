"""Access-control rules: permit/deny decisions and staging quotas.

The paper positions its service as "a general policy service that can be
tailored to specific purposes" and cites permit/denial systems
(MyProxy-style data-movement policies) as related work.  This optional
rule pack adds that class of policy on top of the Table I rules:

* **host denials** — a VO administrator bans transfers that read from or
  write to specific hosts;
* **per-workflow staging quotas** — each workflow may move at most a
  configured number of bytes through the service; transfers beyond the
  quota are denied.  The charge fires below the de-dup tiers, so only a
  transfer that will move bytes is charged; a transfer denied after
  de-dup (an earlier charge of its batch used up the budget) takes its
  same-request duplicates with it.

Denied transfers are returned to the transfer tool with action
``"deny"``; unlike a ``skip`` (the file is already there) a denial means
the data will *not* appear, so the tool fails the staging job.
"""

from __future__ import annotations

from repro.rules import Fact, Pattern, Ref, Rule

from repro.policy import salience
from repro.policy.model import TransferFact

__all__ = ["HostDenialFact", "WorkflowQuotaFact", "access_rules"]


class HostDenialFact(Fact):
    """An administrator ban on a host.

    ``direction``: ``"src"`` (no reads from the host), ``"dst"`` (no
    writes to it), or ``"any"``.
    """

    def __init__(self, host: str, direction: str = "any", reason: str = ""):
        if direction not in ("src", "dst", "any"):
            raise ValueError(f"direction must be src/dst/any, got {direction!r}")
        self.host = host
        self.direction = direction
        self.reason = reason or f"host {host!r} is denied by policy"


class WorkflowQuotaFact(Fact):
    """A per-workflow byte budget for staging through the service."""

    def __init__(self, workflow: str, max_bytes: float):
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.workflow = workflow
        self.max_bytes = float(max_bytes)
        self.used_bytes = 0.0


def _denied_transfer(t, bindings) -> bool:
    denial = bindings["deny"]
    if denial.direction in ("src", "any") and t.src_host == denial.host:
        return True
    if denial.direction in ("dst", "any") and t.dst_host == denial.host:
        return True
    return False


def _deny_host(ctx):
    ctx.update(ctx.t, status="denied", reason=ctx.deny.reason)


def _deny_quota(ctx):
    t = ctx.t
    reason = (
        f"workflow {t.workflow!r} staging quota exceeded "
        f"({ctx.quota.used_bytes + t.nbytes:.0f} > {ctx.quota.max_bytes:.0f} bytes)"
    )
    ctx.update(t, status="denied", reason=reason)
    # Denied after batch de-dup ran (an earlier charge of the batch used
    # up the budget), ``t`` is the copy de-dup kept: its duplicates in
    # this request, the only skipped facts in memory, are denied with it.
    for dup in ctx._session.memory.lookup(TransferFact, lfn=t.lfn, dst_url=t.dst_url):
        if dup.status == "skip_duplicate":
            ctx.update(dup, status="denied", reason=reason)


def _charge_quota(ctx):
    ctx.update(ctx.quota, used_bytes=ctx.quota.used_bytes + ctx.t.nbytes)
    ctx.update(ctx.t, quota_charged=True)


def _refund_quota(ctx):
    ctx.update(
        ctx.quota,
        used_bytes=max(0.0, ctx.quota.used_bytes - ctx.t.nbytes),
    )
    ctx.update(ctx.t, quota_charged=False)


def access_rules() -> list[Rule]:
    """The access-control rule pack (enable with
    ``PolicyConfig(access_control=True)``)."""
    return [
        Rule(
            "Refund a failed transfer's quota charge",
            salience=salience.QUOTA_REFUND,
            when=[
                Pattern(
                    TransferFact,
                    "t",
                    where=lambda t, b: t.quota_charged,
                    status="failed",
                ),
                Pattern(WorkflowQuotaFact, "quota", workflow=Ref("t", "workflow")),
            ],
            then=_refund_quota,
        ),
        Rule(
            "Deny transfers that involve an administratively denied host",
            salience=salience.ACCESS_DENY_HOST,
            when=[
                # The handful of admin bans drive the join; the hot, keyed
                # TransferFact pattern sits at the probed last position so
                # the join network walks one status bucket, not the
                # whole frontier (rulelint R009).
                Pattern(HostDenialFact, "deny"),
                Pattern(TransferFact, "t", where=_denied_transfer, status="new"),
            ],
            then=_deny_host,
        ),
        Rule(
            "Deny transfers that would exceed their workflow's staging quota",
            salience=salience.ACCESS_DENY_QUOTA,
            when=[
                Pattern(TransferFact, "t", status="new"),
                Pattern(
                    WorkflowQuotaFact,
                    "quota",
                    # A charged transfer's bytes are already inside
                    # used_bytes — never re-judge it against the budget.
                    where=lambda q, b: not b["t"].quota_charged
                    and q.used_bytes + b["t"].nbytes > q.max_bytes,
                    workflow=Ref("t", "workflow"),
                ),
            ],
            then=_deny_quota,
        ),
        Rule(
            "Charge an admitted transfer against its workflow's quota",
            salience=salience.ACCESS_CHARGE_QUOTA,
            when=[
                Pattern(
                    TransferFact,
                    "t",
                    where=lambda t, b: not t.quota_charged,
                    status="new",
                ),
                Pattern(
                    WorkflowQuotaFact,
                    "quota",
                    where=lambda q, b: q.used_bytes + b["t"].nbytes <= q.max_bytes,
                    workflow=Ref("t", "workflow"),
                ),
            ],
            then=_charge_quota,
        ),
    ]
