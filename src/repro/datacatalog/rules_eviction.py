"""The eviction rule pack: policy-driven replacement of unconditional cleanup.

Without the catalog, an approved cleanup always deletes the file.  With
it, two things change:

* **Retention** (``CLEANUP_RETAIN``, between the in-use skip at 70 and
  approval at 60): a cleanup whose file is a catalog replica on a site
  *with room to spare* is answered ``skip`` — the bytes are cheaper to
  keep than to re-stage for the next workflow that shares the dataset.
  Cleanup-protection is preserved exactly: the in-use skip still fires
  first, and a file on an over-budget (or unbudgeted-but-bounded) site
  falls through to ordinary approval.

* **Eviction** (``EVICTION_SELECT`` at 20, sweep retired at
  ``EVICTION_RETIRE`` = 2): when a site exceeds its byte budget, a
  transient :class:`~repro.datacatalog.model.EvictionSweepFact` drives
  victim selection — LRU or size-aware per
  :class:`~repro.datacatalog.model.CatalogConfig`, never a pinned
  replica, never a replica with in-flight readers (a staging or still-
  used ``StagedFileFact`` at the same URL).  Victims accumulate in
  ``ctx.globals["catalog_evicted"]`` for the service to drain and
  return to the transfer tool, which performs the actual deletion.

Victim order is deterministic (policy key, then lfn/url tie-break), so
advice — and the catalog census — does not depend on the order the
matcher happens to discover candidates in.
"""

from __future__ import annotations

from repro.rules import Collect, Pattern, Ref, Rule

from repro.policy import salience
from repro.policy.model import CleanupFact, StagedFileFact, TransferFact

from repro.datacatalog.model import (
    EvictionSweepFact,
    ReplicaRecordFact,
    SiteCapacityFact,
)

__all__ = ["eviction_rules", "EVICTED_GLOBAL"]

#: session-globals key the eviction rule appends victim documents to
EVICTED_GLOBAL = "catalog_evicted"


def _under_budget(cap: SiteCapacityFact) -> bool:
    return cap.capacity_bytes is None or cap.used_bytes <= cap.capacity_bytes


def _retain_cleanup(ctx):
    ctx.update(
        ctx.c,
        status="retained",
        reason=(
            f"catalog retains replica at {ctx.rep.url} "
            f"(site {ctx.cap.site} under budget)"
        ),
    )


def _victim_order(policy: str, candidates: list) -> list:
    """Deterministic victim order for an eviction policy."""
    if policy == "size":
        return sorted(candidates, key=lambda r: (-r.nbytes, r.lfn, r.url))
    return sorted(candidates, key=lambda r: (r.last_used, r.lfn, r.url))


def _has_inflight_reader(memory, url: str) -> bool:
    """A replica with a staging copy or remaining users must never be
    evicted — this is the cleanup-protection invariant, re-applied.
    A replica currently serving as the *source* of an in-progress
    transfer (replica selection rewrote the origin to it) is equally
    protected: deleting it mid-copy would corrupt the transfer."""
    for staged in memory.lookup(StagedFileFact, dst_url=url):
        if staged.status == "staging" or staged.users:
            return True
    for transfer in memory.lookup(TransferFact, src_url=url):
        if transfer.status == "in_progress":
            return True
    return False


def _select_victims(ctx):
    memory = ctx._session.memory
    cap = ctx.cap
    catalog_config = ctx.globals["config"].catalog
    policy = catalog_config.eviction_policy if catalog_config else "lru"
    evicted = ctx.globals.setdefault(EVICTED_GLOBAL, [])
    freed = 0.0
    for victim in _victim_order(policy, list(ctx.candidates)):
        if cap.used_bytes - freed <= cap.capacity_bytes:
            break
        if _has_inflight_reader(memory, victim.url):
            continue
        freed += victim.nbytes
        evicted.append(
            {
                "lfn": victim.lfn,
                "site": victim.site,
                "url": victim.url,
                "nbytes": victim.nbytes,
                "policy": policy,
                "reason": (
                    f"site {victim.site} over budget "
                    f"({cap.used_bytes:g} > {cap.capacity_bytes:g} bytes)"
                ),
                "now": ctx.sweep.now,
            }
        )
        # Orphaned resource facts (zero users, fully detached) fall with
        # the replica, so policy memory never advertises a deleted file.
        for staged in list(memory.lookup(StagedFileFact, dst_url=victim.url)):
            ctx.retract(staged)
        ctx.retract(victim)
    if freed:
        ctx.update(cap, used_bytes=max(0.0, cap.used_bytes - freed))


def _retire_eviction_sweep(ctx):
    ctx.retract(ctx.sweep)


def eviction_rules() -> list[Rule]:
    """The catalog eviction pack (loaded when the catalog is enabled)."""
    return [
        Rule(
            "Retain cleanups for catalog replicas while their site has capacity",
            salience=salience.CLEANUP_RETAIN,
            when=[
                Pattern(
                    CleanupFact,
                    "c",
                    where=lambda c, b: c.status in ("new", "detached"),
                ),
                Pattern(ReplicaRecordFact, "rep", url=Ref("c", "url")),
                Pattern(
                    SiteCapacityFact,
                    "cap",
                    where=lambda s, b: _under_budget(s),
                    site=Ref("rep", "site"),
                ),
            ],
            then=_retain_cleanup,
        ),
        Rule(
            "Select eviction victims on a site over its byte budget",
            salience=salience.EVICTION_SELECT,
            when=[
                Pattern(EvictionSweepFact, "sweep"),
                Pattern(
                    SiteCapacityFact,
                    "cap",
                    where=lambda s, b: s.capacity_bytes is not None
                    and s.used_bytes > s.capacity_bytes,
                ),
                Collect(
                    ReplicaRecordFact,
                    "candidates",
                    where=lambda r, b: r.pin_count == 0,
                    min_count=1,
                    site=Ref("cap", "site"),
                ),
            ],
            then=_select_victims,
        ),
        Rule(
            "Retire a completed eviction sweep",
            salience=salience.EVICTION_RETIRE,
            when=[Pattern(EvictionSweepFact, "sweep")],
            then=_retire_eviction_sweep,
        ),
    ]
