"""Replica catalog: logical file name -> physical replicas."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Replica", "ReplicaCatalog"]


@dataclass(frozen=True)
class Replica:
    """One physical copy of a logical file."""

    lfn: str
    site: str
    url: str

    def __post_init__(self) -> None:
        if not self.lfn or not self.site or not self.url:
            raise ValueError("replica requires lfn, site and url")


class ReplicaCatalog:
    """Mapping of logical file names to their physical replicas.

    Replicas at the same (site, url) are idempotent to register.  Lookups
    can be filtered by site, which the planner uses to prefer local data.
    """

    def __init__(self) -> None:
        self._by_lfn: dict[str, dict[tuple[str, str], Replica]] = {}

    def register(self, lfn: str, site: str, url: str) -> Replica:
        replica = Replica(lfn, site, url)
        self._by_lfn.setdefault(lfn, {})[(site, url)] = replica
        return replica

    def unregister(self, lfn: str, site: Optional[str] = None) -> int:
        """Remove replicas of ``lfn`` (optionally only at ``site``).

        Returns the number of replicas removed.
        """
        bucket = self._by_lfn.get(lfn)
        if not bucket:
            return 0
        if site is None:
            removed = len(bucket)
            del self._by_lfn[lfn]
            return removed
        victims = [key for key in bucket if key[0] == site]
        for key in victims:
            del bucket[key]
        if not bucket:
            del self._by_lfn[lfn]
        return len(victims)

    def lookup(self, lfn: str, site: Optional[str] = None) -> list[Replica]:
        """All replicas of ``lfn`` (optionally restricted to a site).

        Sorted by (site, url): callers pick sources from this list, so
        its order must not depend on insertion history or hash seeds.
        """
        bucket = self._by_lfn.get(lfn, {})
        replicas = sorted(bucket.values(), key=lambda r: (r.site, r.url))
        if site is not None:
            replicas = [r for r in replicas if r.site == site]
        return replicas

    def has(self, lfn: str, site: Optional[str] = None) -> bool:
        return bool(self.lookup(lfn, site))

