"""Fact types and DTOs of the Policy Service.

Facts live in the persistent policy memory and are what the rule packs
match on; DTOs (:class:`TransferAdvice`, plain dicts over REST) are what
crosses the service boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.datacatalog.model import CatalogConfig
from repro.net.urls import parse_url
from repro.rules import Fact

__all__ = [
    "PolicyConfig",
    "TransferFact",
    "StagedFileFact",
    "HostPairFact",
    "ClusterAllocationFact",
    "CleanupFact",
    "LeaseSweepFact",
    "TransferAdvice",
    "CleanupAdvice",
]


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------
@dataclass
class PolicyConfig:
    """Administrator-provided policy settings (paper §III).

    Parameters
    ----------
    policy:
        ``"greedy"`` (Table II), ``"balanced"`` (Table III), or ``"fifo"``
        (Table I common rules only: dedup/group/defaults, no stream cap).
    default_streams:
        Streams requested per transfer when the client does not specify
        ("default number of parallel streams to use for each transfer").
    max_streams:
        The threshold of total parallel streams allowed between a source
        and destination host pair (greedy), or the pool that balanced
        splits across clusters when ``cluster_threshold`` is unset.
    pair_thresholds:
        Optional per-(src_host, dst_host) overrides of ``max_streams``.
    cluster_count / cluster_threshold:
        Balanced policy inputs: the workflow clustering factor, and the
        per-cluster stream threshold (defaults to
        ``max_streams // cluster_count``).
    order_by:
        ``"urls"`` — sort advice by source/destination URL (Table I);
        ``"priority"`` — sort by structure-based priority, then URLs.
    completed_tid_retention:
        How many completed/failed transfer ids the service remembers for
        :meth:`PolicyService.transfer_state` queries.  Bounded so a
        long-lived service does not grow without limit; the oldest ids
        are forgotten first (their state reads ``"unknown"``).
    lease_seconds:
        When set, every granted transfer or cleanup carries a lease
        deadline that many seconds in the future.  An ``in_progress``
        fact whose lease expires is reaped — marked failed, its stream
        allocations released on both the host-pair and cluster ledgers —
        so a crashed transfer tool can never wedge other workflows.
        ``None`` (default) disables leasing.  Automatic sweeps
        piggy-back on service calls at most every ``lease_seconds / 4``;
        explicit :meth:`PolicyService.reap_expired` calls ignore that
        throttle.
    adaptive / adaptive_settings:
        Enable runtime threshold adaptation from recent transfer
        performance (:mod:`repro.policy.adaptive`); greedy policy only.
    catalog:
        A :class:`~repro.datacatalog.model.CatalogConfig` enabling the
        durable staged-data catalog: replica records and site budgets
        enter policy memory (journaled like every other fact), the
        eviction rule pack loads, and cleanup advice becomes
        capacity-aware (see ``docs/catalog.md``).  ``None`` (default)
        keeps the paper's original unconditional-cleanup behaviour.
    decision_log_cap:
        Decision provenance: the service records a causal "why" record
        for every advice it emits (:mod:`repro.policy.provenance`),
        bounded to the most recent ``decision_log_cap`` decisions,
        queryable via :meth:`PolicyService.explain`.  Not part of the
        config fingerprint — provenance observes decisions, it never
        changes them.
    """

    policy: str = "greedy"
    default_streams: int = 4
    max_streams: int = 50
    pair_thresholds: dict = field(default_factory=dict)
    cluster_count: Optional[int] = None
    cluster_threshold: Optional[int] = None
    order_by: str = "urls"
    adaptive: bool = False
    adaptive_settings: Optional[object] = None
    access_control: bool = False
    completed_tid_retention: int = 10_000
    lease_seconds: Optional[float] = None
    decision_log_cap: int = 4096
    catalog: Optional[CatalogConfig] = None

    def __post_init__(self) -> None:
        if self.policy not in ("greedy", "balanced", "fifo"):
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.default_streams < 1:
            raise ValueError("default_streams must be >= 1")
        if self.max_streams < 1:
            raise ValueError("max_streams must be >= 1")
        if self.order_by not in ("urls", "priority"):
            raise ValueError(f"unknown order_by {self.order_by!r}")
        if self.policy == "balanced":
            if not self.cluster_count or self.cluster_count < 1:
                raise ValueError("balanced policy requires cluster_count >= 1")
            if self.cluster_threshold is not None and self.cluster_threshold < 1:
                raise ValueError("cluster_threshold must be >= 1")
        if self.adaptive and self.policy != "greedy":
            raise ValueError("adaptive thresholds require the greedy policy")
        if self.completed_tid_retention < 0:
            raise ValueError("completed_tid_retention must be >= 0")
        if self.lease_seconds is not None and not self.lease_seconds > 0:  # NaN too
            raise ValueError("lease_seconds must be positive (or None)")
        if self.decision_log_cap < 1:
            raise ValueError("decision_log_cap must be >= 1")
        if self.catalog is not None and not isinstance(self.catalog, CatalogConfig):
            raise ValueError("catalog must be a CatalogConfig (or None)")

    def fingerprint(self) -> dict:
        """The advice-relevant settings (what a journal snapshot pins)."""
        return {
            "policy": self.policy,
            "default_streams": self.default_streams,
            "max_streams": self.max_streams,
            "order_by": self.order_by,
            "access_control": self.access_control,
            "cluster_count": self.cluster_count,
            "cluster_threshold": self.cluster_threshold,
            "lease_seconds": self.lease_seconds,
            "catalog": None if self.catalog is None else self.catalog.fingerprint(),
        }

    def threshold_for(self, src_host: str, dst_host: str) -> int:
        """Stream threshold between a host pair (with per-pair override)."""
        return int(self.pair_thresholds.get((src_host, dst_host), self.max_streams))

    def per_cluster_threshold(self) -> int:
        """Balanced policy: threshold available to each cluster."""
        if self.cluster_threshold is not None:
            return self.cluster_threshold
        assert self.cluster_count
        return max(1, self.max_streams // self.cluster_count)


# --------------------------------------------------------------------------
# Facts
# --------------------------------------------------------------------------
class TransferFact(Fact):
    """A transfer request under policy management.

    Status machine: ``submitted`` -> ``new`` -> (``in_progress`` |
    ``skip_duplicate`` | ``skip_staged`` | ``wait``); in-progress facts are
    retracted when the client reports ``done``/``failed``.
    """

    def __init__(
        self,
        tid: int,
        workflow: str,
        job: str,
        lfn: str,
        src_url: str,
        dst_url: str,
        nbytes: float,
        requested_streams: Optional[int] = None,
        priority: int = 0,
        cluster: Optional[str] = None,
        batch: int = 0,
    ):
        self.tid = tid
        self.workflow = workflow
        self.job = job
        self.lfn = lfn
        self.src_url = src_url
        self.dst_url = dst_url
        self.src_host = parse_url(src_url)[0]
        self.dst_host = parse_url(dst_url)[0]
        self.nbytes = float(nbytes)
        self.requested_streams = requested_streams
        self.allocated_streams: Optional[int] = None
        self.group_id: Optional[int] = None
        self.priority = priority
        self.cluster = cluster
        self.batch = batch
        self.status = "submitted"
        self.reason = ""
        self.wait_for: Optional[int] = None
        self.quota_charged = False
        #: owning tenant (stamped by the fair-share pack from the
        #: workflow->tenant binding; None outside multi-tenant deployments)
        self.tenant: Optional[str] = None
        #: streams currently charged against the tenant's aggregate budget
        self.tenant_streams_reserved = 0
        #: latch: the tenant ledgers were settled for this fact's outcome
        self.tenant_settled = False
        #: absolute clock time after which an in_progress grant may be
        #: reaped (None when the service runs without leases)
        self.lease_deadline: Optional[float] = None


class StagedFileFact(Fact):
    """The paper's *resource*: tracks a staged file and its users.

    ``users`` is the set of workflow ids sharing the file; cleanup requests
    detach their workflow, and the file may only be deleted once no users
    remain.
    """

    def __init__(self, lfn: str, dst_url: str, owner_tid: int, workflow: str):
        self.lfn = lfn
        self.dst_url = dst_url
        self.owner_tid = owner_tid
        self.status = "staging"  # -> "staged"
        self.users: set[str] = {workflow}


class HostPairFact(Fact):
    """Per (source host, destination host) state: group id + allocation."""

    def __init__(self, src_host: str, dst_host: str, group_id: int):
        self.src_host = src_host
        self.dst_host = dst_host
        self.group_id = group_id
        self.allocated = 0
        self.threshold: Optional[int] = None


class ClusterAllocationFact(Fact):
    """Balanced policy: per (host pair, cluster) stream allocation."""

    def __init__(self, src_host: str, dst_host: str, cluster: str):
        self.src_host = src_host
        self.dst_host = dst_host
        self.cluster = cluster
        self.allocated = 0


class CleanupFact(Fact):
    """A cleanup (file deletion) request under policy management."""

    def __init__(self, cid: int, workflow: str, job: str, lfn: str, url: str, batch: int = 0):
        self.cid = cid
        self.workflow = workflow
        self.job = job
        self.lfn = lfn
        self.url = url
        self.batch = batch
        self.status = "submitted"  # -> new -> (approved | skip_in_use | skip_duplicate)
        self.reason = ""
        self.lease_deadline: Optional[float] = None


class LeaseSweepFact(Fact):
    """A transient reaper tick: rules expire leases older than ``now``.

    Inserted by :meth:`PolicyService.reap_expired`, matched by the lease
    rules in :mod:`repro.policy.rules_common`, and retracted by the
    lowest-salience sweep-retirement rule before the session returns.
    Inserting a fact (rather than reading the clock from globals) keeps
    change-log-driven matching sound: time-based expiry becomes a working
    memory change the change log can see.
    """

    def __init__(self, now: float):
        self.now = float(now)


# --------------------------------------------------------------------------
# Advice DTOs
# --------------------------------------------------------------------------
@dataclass
class TransferAdvice:
    """The service's verdict on one requested transfer.

    ``action`` is ``"transfer"`` (execute with ``streams`` in group
    ``group_id``), ``"skip"`` (duplicate/already staged — do nothing), or
    ``"wait"`` (another workflow is staging the same file; wait for
    transfer id ``wait_for``).
    """

    tid: int
    lfn: str
    src_url: str
    dst_url: str
    nbytes: float
    action: str
    streams: int = 1
    group_id: int = 0
    priority: int = 0
    reason: str = ""
    wait_for: Optional[int] = None
    #: clock time by which the grant must be completed before the service
    #: may reap it (None when the service runs without leases)
    lease_deadline: Optional[float] = None

    def to_dict(self) -> dict:
        # What ``dataclasses.asdict`` gives (a test pins the two equal)
        # without its deep copy: this runs once per advice per response.
        return {
            "tid": self.tid, "lfn": self.lfn, "src_url": self.src_url,
            "dst_url": self.dst_url, "nbytes": self.nbytes, "action": self.action,
            "streams": self.streams, "group_id": self.group_id,
            "priority": self.priority, "reason": self.reason,
            "wait_for": self.wait_for, "lease_deadline": self.lease_deadline,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TransferAdvice":
        return cls(**doc)


@dataclass
class CleanupAdvice:
    """The service's verdict on one cleanup request."""

    cid: int
    lfn: str
    url: str
    action: str  # "delete" | "skip"
    reason: str = ""
    lease_deadline: Optional[float] = None

    def to_dict(self) -> dict:
        return {  # declaration order, as in TransferAdvice.to_dict
            "cid": self.cid, "lfn": self.lfn, "url": self.url, "action": self.action,
            "reason": self.reason, "lease_deadline": self.lease_deadline,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CleanupAdvice":
        return cls(**doc)
