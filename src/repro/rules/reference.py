"""The reference matcher: a full rescan on every scan, nothing remembered.

:class:`ReferenceSession` is the oracle the join network is tested
against (the equivalence and Hypothesis suites, verifier check V004) and
the session the confluence verifier permutes tie-breaks on.  Every scan
asks every rule for all its matches against the live memory and takes
the first un-fired one by (salience, matched fact ids, definition
order).  It keeps no match cache and reads neither the memory's change
log nor any other record of what changed, so nothing the network gets
wrong about *change* can be wrong here in the same way.  Nothing on the
serving path imports this module.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.rules.engine import Rule, Session, _activation_key
from repro.rules.facts import WorkingMemory

__all__ = ["ReferenceSession"]


class ReferenceSession(Session):
    """A :class:`~repro.rules.engine.Session` that re-matches everything.

    Refraction, ``no_loop``, ``halt``, tracing, the firing listener and
    the divergence guard are the inherited ones; only the choice of the
    next activation differs.  A profiler sees its firings, not its scans.

    ``tie_break`` is an optional ``(rule, order, key) -> rank`` hook
    replacing the default within-tier activation rank ``(fact-id tuple,
    definition order)``.  The returned ranks must be mutually comparable;
    lower fires first.  The confluence verifier uses it to permute agenda
    tie-breaks deterministically.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        memory: Optional[WorkingMemory] = None,
        globals: Optional[dict] = None,
        max_firings: int = 100_000,
        profiler: Optional[Any] = None,
        tie_break: Optional[Callable[[Rule, int, tuple], Any]] = None,
    ):
        super().__init__(
            rules, memory=memory, globals=globals, max_firings=max_firings,
            profiler=profiler,
        )
        self._tie_break = tie_break
        # rules grouped by salience (descending), definition order kept
        tiers: dict[int, list[tuple[int, Rule]]] = {}
        for order, rule in enumerate(self.rules):
            tiers.setdefault(rule.salience, []).append((order, rule))
        self._tiers = [tiers[s] for s in sorted(tiers, reverse=True)]

    def _next_activation(self):
        seed = {"_globals": self.globals}
        memory, tie_break = self.memory, self._tie_break
        # Lower tiers are only evaluated when every higher one is quiescent.
        for tier in self._tiers:
            best = None
            for order, rule in tier:
                for bindings in rule.matches(memory, seed):
                    key = _activation_key(memory, rule, bindings)
                    if key in self._fired or self._suppressed_by_no_loop(rule, key):
                        continue
                    # Within a tier the oldest matched fact set fires first
                    # (FIFO); definition order breaks ties.
                    rank = (key[1], order) if tie_break is None else tie_break(rule, order, key)
                    if best is None or rank < best[0]:
                        best = (rank, rule, bindings, key)
            if best is not None:
                return best
        return None
