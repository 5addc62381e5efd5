"""The DataCatalog facade: staged-dataset replicas inside policy memory.

A :class:`DataCatalog` is a thin, deterministic view over the service's
:class:`~repro.rules.WorkingMemory`: every mutation goes through the
memory (so the journal observer sees it and it commits with the
surrounding service transaction), and every read is sorted so the
census is byte-identical across shard merges and crash replay.

The catalog itself holds **no state** beyond its configuration — the
facts are the state.  That is what makes recovery trivial: replaying
the WAL rebuilds the facts, and the facade over them is stateless.
"""

from __future__ import annotations

import json
import zlib
from typing import Optional

from repro.net.urls import parse_url

from repro.datacatalog.model import (
    CatalogConfig,
    ReplicaRecordFact,
    SiteCapacityFact,
)

__all__ = ["DataCatalog", "derive_checksum"]


def derive_checksum(lfn: str, nbytes: float) -> str:
    """Deterministic placeholder checksum for replicas registered without
    one (the simulator has no real file contents to hash)."""
    return "crc32:%08x" % zlib.crc32(f"{lfn}:{nbytes:g}".encode("utf-8"))


class DataCatalog:
    """Replica/site bookkeeping over a working memory.

    Must only be mutated inside a service transaction — the memory's
    journal observer records each mutation, and the service's commit
    seals them atomically.
    """

    def __init__(self, memory, config: Optional[CatalogConfig] = None):
        self.memory = memory
        self.config = config or CatalogConfig()

    # ------------------------------------------------------------- placement
    def site_of_url(self, url: str) -> str:
        """Storage site holding ``url`` (host itself when unmapped)."""
        host = parse_url(url)[0]
        return self.config.host_site.get(host, host)

    # ------------------------------------------------------------- lookups
    def replica_at(self, url: str) -> Optional[ReplicaRecordFact]:
        for fact in self.memory.lookup(ReplicaRecordFact, url=url):
            return fact
        return None

    def lookup(self, lfn: str) -> list[ReplicaRecordFact]:
        """All replicas of ``lfn``, deterministically by (site, url)."""
        return sorted(
            self.memory.lookup(ReplicaRecordFact, lfn=lfn),
            key=lambda r: (r.site, r.url),
        )

    def site_fact(self, site: str) -> Optional[SiteCapacityFact]:
        for fact in self.memory.lookup(SiteCapacityFact, site=site):
            return fact
        return None

    def select_source(
        self, lfn: str, dst_url: str, src_url: str
    ) -> Optional[ReplicaRecordFact]:
        """The cheapest existing replica to stage ``lfn`` from.

        Compares every known replica (except one already at the
        destination) against the requested origin under the configured
        link-cost model; returns ``None`` when the origin is at least as
        cheap, so the rewrite only ever *improves* the plan and advice
        stays deterministic (strictly-cheaper, (site, url) tie-break).
        """
        candidates = [r for r in self.lookup(lfn) if r.url != dst_url]
        if not candidates:
            return None
        model = self.config.link_cost_model()
        dst_site = self.site_of_url(dst_url)
        best = model.best(candidates, dst_site)
        if best is None:  # pragma: no cover - candidates is non-empty
            return None
        origin_cost = model.cost(self.site_of_url(src_url), dst_site)
        if model.cost(best.site, dst_site) < origin_cost:
            return best
        return None

    def over_budget_sites(self) -> list[str]:
        """Sites whose catalog usage exceeds their byte budget, sorted."""
        return sorted(
            fact.site
            for fact in self.memory.facts_of(SiteCapacityFact)
            if fact.capacity_bytes is not None
            and fact.used_bytes > fact.capacity_bytes
        )

    # ------------------------------------------------------------- mutations
    def _ensure_site(self, site: str) -> SiteCapacityFact:
        fact = self.site_fact(site)
        if fact is None:
            fact = SiteCapacityFact(site, self.config.capacity_for(site))
            self.memory.insert(fact)
        return fact

    def register(
        self,
        lfn: str,
        url: str,
        nbytes: float,
        now: float,
        checksum: Optional[str] = None,
    ) -> ReplicaRecordFact:
        """Record (or refresh) the replica of ``lfn`` at ``url``.

        Re-registration touches the LRU clock and refreshes size and
        checksum; site usage is adjusted by the size delta.
        """
        nbytes = float(nbytes)
        checksum = checksum or derive_checksum(lfn, nbytes)
        existing = self.replica_at(url)
        if existing is not None:
            site = self._ensure_site(existing.site)
            delta = nbytes - existing.nbytes
            if delta:
                self.memory.update(site, used_bytes=site.used_bytes + delta)
            self.memory.update(
                existing, nbytes=nbytes, checksum=checksum, last_used=float(now)
            )
            return existing
        site_name = self.site_of_url(url)
        site = self._ensure_site(site_name)
        replica = ReplicaRecordFact(
            lfn, site_name, url, nbytes=nbytes, checksum=checksum, now=now
        )
        self.memory.insert(replica)
        self.memory.update(site, used_bytes=site.used_bytes + nbytes)
        return replica

    def unregister(self, url: str) -> bool:
        """Forget the replica at ``url`` and release its site bytes."""
        replica = self.replica_at(url)
        if replica is None:
            return False
        site = self.site_fact(replica.site)
        if site is not None:
            self.memory.update(
                site, used_bytes=max(0.0, site.used_bytes - replica.nbytes)
            )
        self.memory.retract(replica)
        return True

    def touch(self, url: str, now: float) -> bool:
        """Refresh the LRU clock of the replica at ``url`` (a catalog hit)."""
        replica = self.replica_at(url)
        if replica is None:
            return False
        if replica.last_used != float(now):
            self.memory.update(replica, last_used=float(now))
        return True

    def pin(self, url: str) -> bool:
        """Protect the replica at ``url`` from eviction."""
        replica = self.replica_at(url)
        if replica is None:
            return False
        self.memory.update(replica, pin_count=replica.pin_count + 1)
        return True

    def unpin(self, url: str) -> bool:
        """Release one pin (never below zero)."""
        replica = self.replica_at(url)
        if replica is None:
            return False
        self.memory.update(replica, pin_count=max(0, replica.pin_count - 1))
        return True

    def set_site_capacity(self, site: str, capacity_bytes: Optional[float]) -> None:
        """Set (or lift, with None) a site's byte budget at runtime."""
        fact = self.site_fact(site)
        if fact is None:
            self.memory.insert(SiteCapacityFact(site, capacity_bytes))
        else:
            self.memory.update(
                fact,
                capacity_bytes=(
                    None if capacity_bytes is None else float(capacity_bytes)
                ),
            )

    # ------------------------------------------------------------- census
    def census(self) -> dict:
        """Canonical catalog state — the byte-identity witness.

        Sorted, JSON-able, and free of engine bookkeeping (no fids), so
        two catalogs hold the same data iff their censuses are equal.
        """
        replicas = [
            {
                "lfn": r.lfn,
                "site": r.site,
                "url": r.url,
                "nbytes": r.nbytes,
                "checksum": r.checksum,
                "pin_count": r.pin_count,
                "last_used": r.last_used,
                "registered_at": r.registered_at,
            }
            for r in sorted(
                self.memory.facts_of(ReplicaRecordFact),
                key=lambda r: (r.lfn, r.site, r.url),
            )
        ]
        sites = [
            {
                "site": s.site,
                "capacity_bytes": s.capacity_bytes,
                "used_bytes": s.used_bytes,
            }
            for s in sorted(
                self.memory.facts_of(SiteCapacityFact), key=lambda s: s.site
            )
        ]
        return {"replicas": replicas, "sites": sites}

    def census_text(self) -> str:
        """The census as canonical JSON (sorted keys, no whitespace)."""
        return json.dumps(self.census(), sort_keys=True, separators=(",", ":"))
