"""Ensemble scheduling: which queued workflow runs next.

Three orderings over the submission queue, all deterministic:

``FifoScheduler``
    Strict arrival order; the pre-tenancy ensemble behaviour.
``StrictPriorityScheduler``
    Highest tenant ``priority_class`` first; FIFO within a class.
``FairShareScheduler``
    Stride scheduling over *bytes staged to date*: each tenant carries a
    virtual ``pass`` value (charged bytes divided by its weight) and the
    tenant with the smallest pass runs next, so long-run bytes converge
    to the weight ratios.  Priority classes still dominate — a higher
    class always beats a lower one — and ties fall back to arrival order,
    which keeps the schedule a pure function of the submission sequence.

Charging is the scheduler's only mutable state: the admission controller
charges each submission's *estimated* bytes when it admits (so a burst of
admissions spreads across tenants immediately) and reconciles against
actual bytes on completion.  ``seed_charges`` restores the ledgers from a
recovered policy service so an ensemble resumed after a crash reproduces
the same admission decisions it would have made uninterrupted.

Byte quotas are enforced at submission time: a submission whose tenant
has already charged ``max_bytes`` (or would exceed it with this
estimate) raises :class:`TenantQuotaError` — rejected at the door, never
queued and starved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.tenancy.registry import TenantRegistry

__all__ = [
    "Submission",
    "TenantQuotaError",
    "EnsembleScheduler",
    "FifoScheduler",
    "StrictPriorityScheduler",
    "FairShareScheduler",
    "make_scheduler",
]


class TenantQuotaError(RuntimeError):
    """A submission would exceed its tenant's aggregate byte budget."""


@dataclass(frozen=True)
class Submission:
    """One queued unit of work (the payload is opaque to this package)."""

    seq: int
    tenant: str
    name: str
    est_bytes: float = 0.0
    payload: Any = None


class EnsembleScheduler:
    """Base queue: submit / select / charge.  Subclasses define the order
    with ``_key(submission)``, smallest first."""

    _key: Callable[[Submission], Any]

    def __init__(self, registry: TenantRegistry):
        self.registry = registry
        self._queue: list[Submission] = []
        self._seq = 0
        #: bytes charged per tenant (estimates at admit, reconciled on completion)
        self.charged: dict[str, float] = {}

    # -- queue ----------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        name: str,
        est_bytes: float = 0.0,
        payload: Any = None,
    ) -> Submission:
        """Queue one unit of work; raises on unknown tenant or blown quota."""
        spec = self.registry.get(tenant)
        if not isinstance(est_bytes, (int, float)) or isinstance(est_bytes, bool) \
                or not math.isfinite(est_bytes) or est_bytes < 0:
            raise ValueError(f"est_bytes must be a finite number >= 0, got {est_bytes!r}")
        if spec.max_bytes is not None:
            # Project over the ledger (admitted + completed work) plus the
            # still-queued estimates, so a burst of submissions cannot
            # collectively overshoot the budget before any is admitted.
            queued = sum(s.est_bytes for s in self._queue if s.tenant == tenant)
            projected = self.charged.get(tenant, 0.0) + queued + float(est_bytes)
            if projected > spec.max_bytes:
                raise TenantQuotaError(
                    f"tenant {tenant!r} byte quota exhausted: "
                    f"{projected:.0f} projected > {spec.max_bytes:.0f} allowed"
                )
        self._seq += 1
        sub = Submission(self._seq, tenant, name, float(est_bytes), payload)
        self._queue.append(sub)
        return sub

    def select(
        self, eligible: Optional[Callable[[Submission], bool]] = None
    ) -> Optional[Submission]:
        """Pop the next submission to run (restricted to ``eligible`` ones)."""
        candidates = [s for s in self._queue if eligible is None or eligible(s)]
        if not candidates:
            return None
        chosen = min(candidates, key=self._key)
        self._queue.remove(chosen)
        return chosen

    def __len__(self) -> int:
        return len(self._queue)

    # -- ledgers --------------------------------------------------------------
    def charge(self, tenant: str, nbytes: float) -> float:
        """Add (possibly negative, for reconciliation) bytes to a tenant."""
        total = max(0.0, self.charged.get(tenant, 0.0) + float(nbytes))
        self.charged[tenant] = total
        return total

    def seed_charges(self, charges: dict[str, float]) -> None:
        """Restore per-tenant ledgers (crash recovery / warm restart)."""
        for tenant, nbytes in charges.items():
            self.charged[tenant] = max(0.0, float(nbytes))



class FifoScheduler(EnsembleScheduler):
    """Arrival order, tenants ignored (the legacy ensemble manager)."""

    def _key(self, sub: Submission):
        return (sub.seq,)


class StrictPriorityScheduler(EnsembleScheduler):
    """Highest tenant priority class first; FIFO within a class."""

    def _key(self, sub: Submission):
        return (-self.registry.get(sub.tenant).priority_class, sub.seq)


class FairShareScheduler(EnsembleScheduler):
    """Weighted fair queueing (stride) over bytes staged to date."""

    def virtual_pass(self, tenant: str) -> float:
        return self.charged.get(tenant, 0.0) / self.registry.get(tenant).weight

    def _key(self, sub: Submission):
        spec = self.registry.get(sub.tenant)
        return (-spec.priority_class, self.virtual_pass(sub.tenant), sub.seq)


_SCHEDULERS = {
    "fifo": FifoScheduler,
    "priority": StrictPriorityScheduler,
    "fair": FairShareScheduler,
}


def make_scheduler(kind: str, registry: TenantRegistry) -> EnsembleScheduler:
    """Instantiate a scheduler by name (``fifo`` / ``priority`` / ``fair``)."""
    try:
        cls = _SCHEDULERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {kind!r} (choose from {sorted(_SCHEDULERS)})"
        ) from None
    return cls(registry)
