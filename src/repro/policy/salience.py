"""Named salience tiers for the policy rule packs.

Firing order across the rule files used to be encoded as bare integers
("96 fires before the Table I failure-removal rule at 95") whose meaning
lived in comments.  This module gives every tier a name and asserts the
ordering invariants those comments promised, so a refactor that renumbers
one file cannot silently invert the cascade.  The rule-set linter
(:mod:`repro.analysis.rulelint`) re-checks the same invariants and flags
any rule whose salience is not one of these named tiers.

Tier map (higher fires first)::

    97  LEASE_EXPIRY        reaper sweeps mark stale in_progress work failed
    96  QUOTA_REFUND        refund quota before the failure-removal rule
    95  FAIRSHARE_RELEASE   settle tenant ledgers before Table I retracts facts
    94  COMPLETION          completion/failure processing frees streams
    90  ACK                 acknowledge newly inserted transfers/cleanups
    88  ACCESS_DENY_HOST    host denials, after ack, before dedup
    87  ACCESS_DENY_QUOTA   quota denials
    85  DEDUP_BATCH         de-dup within the request batch (also cleanups)
    84  DEDUP_STAGED        de-dup against already-staged files
    83  DEDUP_IN_FLIGHT     de-dup against in-flight transfers
    81  ACCESS_CHARGE_QUOTA quota charging for the transfers de-dup kept
    80  CLEANUP_DETACH      detach a cleanup's workflow from its resource
    70  RESOURCE_CREATE     create staged-file resources
    70  CLEANUP_SKIP_IN_USE skip cleanups for files still in use
    65  RESOURCE_ASSOCIATE  associate transfers with existing resources
    61  CLEANUP_RETAIN      retain evictable replicas while the site has room
    60  GROUP_CREATE        mint host-pair group ids
    60  CLEANUP_APPROVE     approve cleanups with no remaining users
    55  GROUP_ASSIGN        stamp group ids onto transfers
    52  PRIORITY_STAMP      stamp structure-based priorities
    50  STREAMS_DEFAULT     default parallel-stream level
    49  STREAMS_MINIMUM     clamp requests below one stream
    46  TENANT_STAMP        stamp the owning tenant onto new transfers
    44  FAIRSHARE_RESERVE   clamp + charge the tenant's aggregate stream budget
    41  THRESHOLD_RETRIEVE  lazily stamp host-pair thresholds
    40  ALLOCATION          greedy / balanced stream grants
    39  FAIRSHARE_ADJUST    refund tenant over-reservation after allocation
    20  EVICTION_SELECT     pick eviction victims on over-budget sites
     2  EVICTION_RETIRE     retire the transient eviction-sweep fact
     1  SWEEP_RETIRE        retire the transient lease-sweep fact last
"""

from __future__ import annotations

__all__ = [
    "LEASE_EXPIRY",
    "QUOTA_REFUND",
    "FAIRSHARE_RELEASE",
    "COMPLETION",
    "ACK",
    "ACCESS_DENY_HOST",
    "ACCESS_DENY_QUOTA",
    "ACCESS_CHARGE_QUOTA",
    "DEDUP_BATCH",
    "DEDUP_STAGED",
    "DEDUP_IN_FLIGHT",
    "CLEANUP_DETACH",
    "RESOURCE_CREATE",
    "CLEANUP_SKIP_IN_USE",
    "RESOURCE_ASSOCIATE",
    "CLEANUP_RETAIN",
    "GROUP_CREATE",
    "CLEANUP_APPROVE",
    "GROUP_ASSIGN",
    "PRIORITY_STAMP",
    "STREAMS_DEFAULT",
    "STREAMS_MINIMUM",
    "TENANT_STAMP",
    "FAIRSHARE_RESERVE",
    "THRESHOLD_RETRIEVE",
    "ALLOCATION",
    "FAIRSHARE_ADJUST",
    "EVICTION_SELECT",
    "EVICTION_RETIRE",
    "SWEEP_RETIRE",
    "TIERS",
    "ORDERING_INVARIANTS",
    "validate_ordering",
]

LEASE_EXPIRY = 97
QUOTA_REFUND = 96
FAIRSHARE_RELEASE = 95
COMPLETION = 94
ACK = 90
ACCESS_DENY_HOST = 88
ACCESS_DENY_QUOTA = 87
DEDUP_BATCH = 85
DEDUP_STAGED = 84
DEDUP_IN_FLIGHT = 83
ACCESS_CHARGE_QUOTA = 81
CLEANUP_DETACH = 80
RESOURCE_CREATE = 70
CLEANUP_SKIP_IN_USE = 70
RESOURCE_ASSOCIATE = 65
CLEANUP_RETAIN = 61
GROUP_CREATE = 60
CLEANUP_APPROVE = 60
GROUP_ASSIGN = 55
PRIORITY_STAMP = 52
STREAMS_DEFAULT = 50
STREAMS_MINIMUM = 49
TENANT_STAMP = 46
FAIRSHARE_RESERVE = 44
THRESHOLD_RETRIEVE = 41
ALLOCATION = 40
FAIRSHARE_ADJUST = 39
EVICTION_SELECT = 20
EVICTION_RETIRE = 2
SWEEP_RETIRE = 1

#: name -> value for every named tier (what the linter accepts as
#: non-magic salience values).
TIERS: dict[str, int] = {
    "LEASE_EXPIRY": LEASE_EXPIRY,
    "QUOTA_REFUND": QUOTA_REFUND,
    "FAIRSHARE_RELEASE": FAIRSHARE_RELEASE,
    "COMPLETION": COMPLETION,
    "ACK": ACK,
    "ACCESS_DENY_HOST": ACCESS_DENY_HOST,
    "ACCESS_DENY_QUOTA": ACCESS_DENY_QUOTA,
    "ACCESS_CHARGE_QUOTA": ACCESS_CHARGE_QUOTA,
    "DEDUP_BATCH": DEDUP_BATCH,
    "DEDUP_STAGED": DEDUP_STAGED,
    "DEDUP_IN_FLIGHT": DEDUP_IN_FLIGHT,
    "CLEANUP_DETACH": CLEANUP_DETACH,
    "RESOURCE_CREATE": RESOURCE_CREATE,
    "CLEANUP_SKIP_IN_USE": CLEANUP_SKIP_IN_USE,
    "RESOURCE_ASSOCIATE": RESOURCE_ASSOCIATE,
    "CLEANUP_RETAIN": CLEANUP_RETAIN,
    "GROUP_CREATE": GROUP_CREATE,
    "CLEANUP_APPROVE": CLEANUP_APPROVE,
    "GROUP_ASSIGN": GROUP_ASSIGN,
    "PRIORITY_STAMP": PRIORITY_STAMP,
    "STREAMS_DEFAULT": STREAMS_DEFAULT,
    "STREAMS_MINIMUM": STREAMS_MINIMUM,
    "TENANT_STAMP": TENANT_STAMP,
    "FAIRSHARE_RESERVE": FAIRSHARE_RESERVE,
    "THRESHOLD_RETRIEVE": THRESHOLD_RETRIEVE,
    "ALLOCATION": ALLOCATION,
    "FAIRSHARE_ADJUST": FAIRSHARE_ADJUST,
    "EVICTION_SELECT": EVICTION_SELECT,
    "EVICTION_RETIRE": EVICTION_RETIRE,
    "SWEEP_RETIRE": SWEEP_RETIRE,
}

#: ``(higher, lower, why)`` — every cross-file firing-order promise the
#: comments used to carry.  ``validate_ordering`` enforces strict order.
ORDERING_INVARIANTS: list[tuple[str, str, str]] = [
    ("LEASE_EXPIRY", "COMPLETION",
     "a reaped transfer must be marked failed before completion processing"),
    ("QUOTA_REFUND", "COMPLETION",
     "the quota refund must see the failed fact before Table I retracts it"),
    ("LEASE_EXPIRY", "FAIRSHARE_RELEASE",
     "reaped transfers must be failed before tenant ledgers are settled"),
    ("FAIRSHARE_RELEASE", "COMPLETION",
     "tenant stream/byte ledgers must be settled before Table I retracts "
     "the done/failed fact"),
    ("COMPLETION", "ACK",
     "completions free streams before new transfers are acknowledged"),
    ("ACK", "ACCESS_DENY_HOST",
     "access control judges acknowledged (status=new) transfers"),
    ("ACCESS_DENY_HOST", "ACCESS_DENY_QUOTA",
     "host bans take precedence over quota denials"),
    ("ACCESS_DENY_QUOTA", "ACCESS_CHARGE_QUOTA",
     "a transfer over budget must be denied before it can be charged"),
    ("ACCESS_DENY_QUOTA", "DEDUP_BATCH",
     "a transfer over budget is denied before de-duplication"),
    ("DEDUP_IN_FLIGHT", "ACCESS_CHARGE_QUOTA",
     "only a transfer de-duplication kept is charged: a duplicate, a "
     "staged file or an in-flight wait moves no bytes"),
    ("ACCESS_CHARGE_QUOTA", "RESOURCE_CREATE",
     "a transfer that a charge pushes over budget is denied before it "
     "claims a resource"),
    ("DEDUP_BATCH", "DEDUP_STAGED",
     "in-batch duplicates resolve before the staged-file check"),
    ("DEDUP_STAGED", "DEDUP_IN_FLIGHT",
     "already-staged beats waiting on an in-flight twin"),
    ("DEDUP_IN_FLIGHT", "RESOURCE_CREATE",
     "surviving transfers create resources only after de-duplication"),
    ("RESOURCE_CREATE", "RESOURCE_ASSOCIATE",
     "a resource must exist before other transfers associate with it"),
    ("RESOURCE_ASSOCIATE", "GROUP_CREATE",
     "resource bookkeeping precedes host-pair grouping"),
    ("GROUP_CREATE", "GROUP_ASSIGN",
     "the host-pair fact must exist before its group id is stamped"),
    ("GROUP_ASSIGN", "PRIORITY_STAMP",
     "grouping completes before priority stamping"),
    ("PRIORITY_STAMP", "STREAMS_DEFAULT",
     "priorities are stamped before stream defaults"),
    ("STREAMS_DEFAULT", "STREAMS_MINIMUM",
     "the default level is assigned before the >=1 clamp runs"),
    ("STREAMS_MINIMUM", "TENANT_STAMP",
     "stream requests are final before tenant budgets are applied"),
    ("TENANT_STAMP", "FAIRSHARE_RESERVE",
     "the owning tenant must be stamped before its budget is charged"),
    ("FAIRSHARE_RESERVE", "THRESHOLD_RETRIEVE",
     "tenant-budget clamping precedes host-pair threshold handling"),
    ("STREAMS_MINIMUM", "THRESHOLD_RETRIEVE",
     "stream requests are final before thresholds are retrieved"),
    ("THRESHOLD_RETRIEVE", "ALLOCATION",
     "the threshold must be stamped before any grant rule fires"),
    ("FAIRSHARE_RESERVE", "ALLOCATION",
     "the tenant budget clamps requested streams before any grant rule "
     "reads them"),
    ("ALLOCATION", "FAIRSHARE_ADJUST",
     "over-reservation can only be refunded once the grant is known"),
    ("FAIRSHARE_ADJUST", "SWEEP_RETIRE",
     "tenant ledgers are settled before the lease sweep retires"),
    ("ACK", "DEDUP_BATCH",
     "cleanups are acknowledged before duplicate-cleanup removal"),
    ("DEDUP_BATCH", "CLEANUP_DETACH",
     "duplicate cleanups are removed before detaching workflows"),
    ("CLEANUP_DETACH", "CLEANUP_SKIP_IN_USE",
     "the requester detaches before the in-use check counts users"),
    ("CLEANUP_SKIP_IN_USE", "CLEANUP_RETAIN",
     "a file still in use is never judged by the capacity-retention rule"),
    ("CLEANUP_RETAIN", "CLEANUP_APPROVE",
     "retention on under-budget sites must veto cleanup approval"),
    ("ALLOCATION", "EVICTION_SELECT",
     "stream grants settle before eviction victims are chosen"),
    ("EVICTION_SELECT", "EVICTION_RETIRE",
     "victims are selected before the eviction sweep retires"),
    ("EVICTION_RETIRE", "SWEEP_RETIRE",
     "the eviction sweep retires before the lease sweep"),
    ("ALLOCATION", "SWEEP_RETIRE",
     "the lease sweep retires only after every other tier is quiescent"),
]


def validate_ordering(tiers: dict[str, int] | None = None) -> None:
    """Raise ``ValueError`` if any documented ordering invariant is broken."""
    values = TIERS if tiers is None else tiers
    broken = []
    for higher, lower, why in ORDERING_INVARIANTS:
        if values[higher] <= values[lower]:
            broken.append(
                f"{higher} ({values[higher]}) must fire before "
                f"{lower} ({values[lower]}): {why}"
            )
    if broken:
        raise ValueError("salience ordering invariants violated:\n  " + "\n  ".join(broken))


validate_ordering()
