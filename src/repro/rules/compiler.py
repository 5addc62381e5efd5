"""Compilation pass: rule packs -> join-network execution plans.

The compiled engine (``engine="compiled"`` on the Policy Service) does
not interpret a rule's condition elements from scratch on every firing.
This module analyses each rule **once** and assigns it an execution plan
that the :class:`~repro.rules.network.JoinNetwork` runs:

``join``
    Every condition element is a bound :class:`~repro.rules.patterns.Pattern`
    and there are at least two of them.  The network keeps *beta memories*
    (memoized partial matches for every join prefix) bucketed by the next
    position's join-key values, and drives re-matching from the working
    memory's change log.  A change to a fact matched at the **last**
    position — the hot case in every allocation rule, where a counter
    fact is updated on each firing — does not eagerly re-join the whole
    prefix frontier; it creates a *lazy probe* that walks the matching
    bucket in activation-rank order and only ever materializes the
    single next candidate (see :class:`~repro.rules.network.JoinNetwork`).

``delta``
    Everything else (rules using ``Absent`` / ``Exists`` / ``Collect`` /
    ``Test``, single-Pattern rules, or rules with unbound patterns).
    These fall back to the dirty-set delta/rebuild strategy of the
    incremental agenda, feeding the same candidate heap, so mixed rule
    packs behave identically to the interpreted engines.

The plan assignment (and the reason a rule fell off the fast path) is
exposed through :func:`fast_path_report` so the rule linter can flag
packs that will not compile to the join network.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.rules.engine import Rule
from repro.rules.patterns import Absent, Collect, Exists, Pattern, Test

__all__ = [
    "PLAN_JOIN",
    "PLAN_DELTA",
    "PositionPlan",
    "RulePlan",
    "CompiledRuleset",
    "compile_rules",
    "fast_path_report",
]

PLAN_JOIN = "join"
PLAN_DELTA = "delta"


class PositionPlan:
    """Static join information for one Pattern position of a rule."""

    __slots__ = ("index", "element", "fact_type", "binding", "key_attrs")

    def __init__(self, index: int, element: Pattern):
        self.index = index
        self.element = element
        self.fact_type = element.fact_type
        self.binding = element.binding
        #: sorted attribute names of the position's join key (the bucket
        #: key of the beta memory feeding this position), None when the
        #: pattern declares no access-path keys.
        self.key_attrs: Optional[tuple[str, ...]] = (
            tuple(sorted(element.keys)) if element.keys is not None else None
        )


class RulePlan:
    """One rule's compiled execution plan."""

    __slots__ = ("rule", "order", "kind", "reason", "positions",
                 "pattern_types", "gates")

    def __init__(self, rule: Rule, order: int, kind: str, reason: str,
                 positions: list[PositionPlan]):
        self.rule = rule
        #: definition index — the salience tie-breaker, identical to the
        #: interpreted engines.
        self.order = order
        self.kind = kind
        #: why the rule fell off the join fast path ("" when it didn't)
        self.reason = reason
        #: Pattern positions in condition order (join plans: all of them)
        self.positions = positions
        self.pattern_types: tuple[type, ...] = tuple(
            {p.fact_type for p in positions}
        )
        #: typed non-Pattern elements (Absent / Exists / Collect) — the
        #: gates whose truth a mutation of their fact type may flip.
        self.gates: tuple = tuple(
            el for el in rule.when
            if isinstance(el, (Absent, Exists, Collect))
        )


def _classify(rule: Rule, order: int) -> RulePlan:
    positions = [
        PositionPlan(i, el)
        for i, el in enumerate(rule.when)
        if isinstance(el, Pattern)
    ]
    for el in rule.when:
        if isinstance(el, (Absent, Exists, Collect, Test)):
            return RulePlan(
                rule, order, PLAN_DELTA,
                f"condition {type(el).__name__} is not a join-network element",
                positions,
            )
        if not isinstance(el, Pattern):
            return RulePlan(
                rule, order, PLAN_DELTA,
                f"unknown condition element {type(el).__name__}",
                positions,
            )
    if len(rule.when) < 2:
        return RulePlan(
            rule, order, PLAN_DELTA, "single-pattern rule needs no join network",
            positions,
        )
    for el in rule.when:
        if not el.binding:
            return RulePlan(
                rule, order, PLAN_DELTA,
                "unbound pattern: activation identity ignores the matched fact",
                positions,
            )
    return RulePlan(rule, order, PLAN_JOIN, "", positions)


class CompiledRuleset:
    """Plans for a rule pack, grouped into salience tiers.

    Immutable once built; a :class:`~repro.rules.network.JoinNetwork`
    holds the per-evaluation runtime state (beta memories, candidate
    heaps, probes) and many networks may share one ruleset.
    """

    def __init__(self, rules: Sequence[Rule]):
        self.rules = list(rules)
        self.plans = [_classify(rule, order) for order, rule in enumerate(self.rules)]
        tiers: dict[int, list[RulePlan]] = {}
        for plan in self.plans:
            tiers.setdefault(plan.rule.salience, []).append(plan)
        #: plans grouped by salience, highest first (definition order kept
        #: inside a tier) — the firing order skeleton.
        self.tiers: list[list[RulePlan]] = [
            tiers[s] for s in sorted(tiers, reverse=True)
        ]
        self._tier_of = {
            plan.rule.name: i for i, tier in enumerate(self.tiers) for plan in tier
        }
        # concrete fact type -> [(plan, dispatch info)], filled lazily:
        # the set of concrete types is only known at runtime.
        self._dispatch: dict[type, list[tuple[RulePlan, dict]]] = {}

    def tier_of(self, rule_name: str) -> int:
        return self._tier_of[rule_name]

    def dispatch(self, fact_type: type) -> list[tuple[RulePlan, dict]]:
        """Plans interested in mutations of ``fact_type`` plus how the
        type participates: Pattern positions, Absent / hard-gate roles."""
        cached = self._dispatch.get(fact_type)
        if cached is not None:
            return cached
        out: list[tuple[RulePlan, dict]] = []
        for plan in self.plans:
            rule = plan.rule
            if not issubclass(fact_type, rule.types):
                continue
            info = {
                "positions": [
                    p.index for p in plan.positions
                    if issubclass(fact_type, p.fact_type)
                ],
                "absent": bool(rule.absent_types)
                and issubclass(fact_type, rule.absent_types),
                "hard": bool(rule.hard_gate_types)
                and issubclass(fact_type, rule.hard_gate_types),
            }
            out.append((plan, info))
        self._dispatch[fact_type] = out
        return out


def compile_rules(rules: Sequence[Rule]) -> CompiledRuleset:
    """Compile a rule pack into join-network execution plans."""
    return CompiledRuleset(rules)


def fast_path_report(rules: Sequence[Rule]) -> list[dict]:
    """Per-rule plan assignment for static analysis / the rule linter.

    Each row carries the rule name, the assigned plan kind, the reason a
    rule fell back to the ``delta`` plan, and whether the rule's *last*
    pattern declares join keys (an unkeyed last position makes the lazy
    probe walk the whole prefix frontier instead of one bucket).
    """
    report = []
    for order, rule in enumerate(rules):
        plan = _classify(rule, order)
        last_keyed = None
        if plan.kind == PLAN_JOIN:
            last_keyed = plan.positions[-1].key_attrs is not None
        report.append({
            "rule": rule.name,
            "salience": rule.salience,
            "plan": plan.kind,
            "reason": plan.reason,
            "last_position_keyed": last_keyed,
        })
    return report
