"""Per-site-pair link costs for replica selection.

The EC2 data-sharing study (arXiv 1010.4822) showed that *where* a
shared dataset is staged from dominates cost and makespan.  This module
is the cost model the planner and transfer tool minimise over: a
relative cost per (source site, destination site) pair — 0 for a
same-site copy, small for a LAN hop, large for a WAN hop.

Costs are relative weights, not seconds: only the ordering matters for
victim selection, and deterministic tie-breaking by (site, url) keeps
planning hash-seed independent.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = ["LinkCostModel", "DEFAULT_LAN_COST", "DEFAULT_WAN_COST"]

DEFAULT_LAN_COST = 1.0
DEFAULT_WAN_COST = 10.0


class LinkCostModel:
    """Relative transfer cost between storage sites.

    Parameters
    ----------
    costs:
        ``{(src_site, dst_site): cost}`` overrides.  Pairs not listed
        fall back to ``same_site_cost`` when the sites match, else
        ``default_cost``.
    default_cost:
        Cost of an unlisted cross-site pair (a WAN hop by default).
    same_site_cost:
        Cost of an unlisted same-site pair (0 — the data is already
        there).
    """

    def __init__(
        self,
        costs: Optional[dict] = None,
        default_cost: float = DEFAULT_WAN_COST,
        same_site_cost: float = 0.0,
    ):
        self.costs = {
            (str(src), str(dst)): float(value)
            for (src, dst), value in (costs or {}).items()
        }
        self.default_cost = float(default_cost)
        self.same_site_cost = float(same_site_cost)

    def cost(self, src_site: str, dst_site: str) -> float:
        """Relative cost of staging from ``src_site`` to ``dst_site``."""
        try:
            return self.costs[(src_site, dst_site)]
        except KeyError:
            if src_site == dst_site:
                return self.same_site_cost
            return self.default_cost

    def best(self, candidates: Iterable, dst_site: str):
        """The cheapest replica for ``dst_site`` from ``candidates``.

        Candidates are objects with ``site`` and ``url`` attributes
        (``ReplicaRecordFact``, the simulator's ``Replica``, ...).  Ties
        break deterministically by (site, url); returns ``None`` for an
        empty candidate set.
        """
        best = None
        best_key = None
        for replica in candidates:
            key = (self.cost(replica.site, dst_site), replica.site, replica.url)
            if best_key is None or key < best_key:
                best, best_key = replica, key
        return best

