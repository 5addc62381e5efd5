"""Fact types and configuration of the durable staged-data catalog.

The catalog answers the question policy memory alone could not: *which
datasets exist as replicas, where, how big, and who still needs them* —
the signac-style "indexable, well-defined storage layout" of ROADMAP
item 5.  Catalog state lives in the same working memory as the rest of
policy memory, so every mutation rides the service's WAL commit
transactions and recovery is byte-identical for free.

Facts
-----
:class:`ReplicaRecordFact`
    One physical copy of a dataset: (lfn, site, url) plus size,
    checksum, pin count, and last-use simulation time.
:class:`SiteCapacityFact`
    One storage site's byte budget and current usage.  ``capacity_bytes
    = None`` means unbounded (the catalog tracks usage but never
    evicts).
:class:`EvictionSweepFact`
    A transient sweep tick, mirroring ``LeaseSweepFact``: inserted when
    a site may be over budget, matched by the eviction pack, retired by
    the lowest-salience eviction rule.  Time enters as a fact, not a
    global, so the rule session sees it in the change log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.rules import Fact

from repro.datacatalog.linkcost import DEFAULT_WAN_COST, LinkCostModel

__all__ = [
    "CatalogConfig",
    "ReplicaRecordFact",
    "SiteCapacityFact",
    "EvictionSweepFact",
    "EVICTION_POLICIES",
]

#: victim-selection orders understood by the eviction pack
EVICTION_POLICIES = ("lru", "size")


@dataclass
class CatalogConfig:
    """Administrator-provided catalog settings.

    Parameters
    ----------
    eviction_policy:
        ``"lru"`` — evict the least-recently-used replica first;
        ``"size"`` — evict the largest replica first.  Pinned replicas
        and replicas with in-flight readers are never evicted.
    site_capacity:
        Per-site byte budgets, ``{site: bytes}``.  Sites not listed fall
        back to ``default_capacity``.
    default_capacity:
        Byte budget for sites without an explicit entry; ``None``
        (default) means unbounded.
    host_site:
        ``{host: site}`` mapping used to place a replica URL at a
        storage site; hosts not listed are their own site.
    link_costs / default_link_cost / same_site_link_cost:
        The replica-selection cost model (see
        :class:`~repro.datacatalog.linkcost.LinkCostModel`):
        ``{(src_site, dst_site): cost}`` overrides, the cost of an
        unlisted cross-site pair, and the cost of an unlisted same-site
        pair.  Advice-relevant (a different model picks different
        sources), so all three enter the config fingerprint.
    """

    eviction_policy: str = "lru"
    site_capacity: dict = field(default_factory=dict)
    default_capacity: Optional[float] = None
    host_site: dict = field(default_factory=dict)
    link_costs: dict = field(default_factory=dict)
    default_link_cost: float = DEFAULT_WAN_COST
    same_site_link_cost: float = 0.0

    def __post_init__(self) -> None:
        if self.eviction_policy not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction_policy {self.eviction_policy!r}; "
                f"expected one of {EVICTION_POLICIES}"
            )
        for site, capacity in self.site_capacity.items():
            if capacity is not None and capacity < 0:
                raise ValueError(f"site_capacity[{site!r}] must be >= 0 or None")
        if self.default_capacity is not None and self.default_capacity < 0:
            raise ValueError("default_capacity must be >= 0 or None")
        for pair, cost in self.link_costs.items():
            if cost < 0:
                raise ValueError(f"link_costs[{pair!r}] must be >= 0")
        if self.default_link_cost < 0 or self.same_site_link_cost < 0:
            raise ValueError("link costs must be >= 0")

    def capacity_for(self, site: str) -> Optional[float]:
        """Byte budget of ``site`` (None = unbounded)."""
        if site in self.site_capacity:
            value = self.site_capacity[site]
            return None if value is None else float(value)
        if self.default_capacity is None:
            return None
        return float(self.default_capacity)

    def link_cost_model(self) -> LinkCostModel:
        """The replica-selection cost model these settings describe."""
        return LinkCostModel(
            self.link_costs,
            default_cost=self.default_link_cost,
            same_site_cost=self.same_site_link_cost,
        )

    def fingerprint(self) -> dict:
        """Advice-relevant settings, canonical for snapshot fingerprints."""
        return {
            "eviction_policy": self.eviction_policy,
            "default_capacity": self.default_capacity,
            "site_capacity": {
                str(site): self.site_capacity[site]
                for site in sorted(self.site_capacity)
            },
            "link_costs": {
                f"{src}->{dst}": float(cost)
                for (src, dst), cost in sorted(self.link_costs.items())
            },
            "default_link_cost": self.default_link_cost,
            "same_site_link_cost": self.same_site_link_cost,
        }


class ReplicaRecordFact(Fact):
    """One physical replica of a dataset known to the catalog.

    ``pin_count`` protects a replica from eviction while a consumer
    holds it; ``last_used`` is the simulation time of the most recent
    registration, catalog hit, or explicit touch (the LRU clock).
    """

    def __init__(
        self,
        lfn: str,
        site: str,
        url: str,
        nbytes: float = 0.0,
        checksum: str = "",
        now: float = 0.0,
    ):
        self.lfn = lfn
        self.site = site
        self.url = url
        self.nbytes = float(nbytes)
        self.checksum = checksum
        self.pin_count = 0
        self.last_used = float(now)
        self.registered_at = float(now)


class SiteCapacityFact(Fact):
    """One storage site's byte budget and current catalog usage."""

    def __init__(self, site: str, capacity_bytes: Optional[float] = None):
        self.site = site
        self.capacity_bytes = (
            None if capacity_bytes is None else float(capacity_bytes)
        )
        self.used_bytes = 0.0


class EvictionSweepFact(Fact):
    """A transient eviction tick (see module docstring)."""

    def __init__(self, now: float):
        self.now = float(now)
