"""Compilation pass: rule packs -> join-network execution plans.

A session does not interpret a rule's condition elements from scratch
on every firing.  This module analyses each rule **once** and assigns it
an execution plan that the :class:`~repro.rules.network.JoinNetwork` runs:

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
    Everything else (rules using ``Absent`` / ``Collect``, single-Pattern
    rules, or rules with unbound patterns).
    These use a dirty-set strategy — re-join the changed facts at each
    Pattern position, re-enumerate the rule when a gate may have opened —
    feeding the same candidate heap, so mixed rule packs fire in the
    same order.

Each :class:`RulePlan` records its assignment and the reason a rule fell
off the fast path; the rule linter reads ``compile_rules(rules).plans``
to flag packs that will not compile to the join network.
"""

from __future__ import annotations

import dis
import functools
from typing import Any, Optional, Sequence

from repro.rules.engine import Rule
from repro.rules.patterns import Pattern

__all__ = [
    "PLAN_JOIN",
    "PLAN_DELTA",
    "PositionPlan",
    "RulePlan",
    "CompiledRuleset",
    "compile_rules",
]

PLAN_JOIN = "join"
PLAN_DELTA = "delta"


@functools.lru_cache(maxsize=None)
def _is_constant(code) -> bool:
    """Can only constants reach the result of a one-argument function
    with this code — no names, no closure, the argument never touched?"""
    return (
        code.co_argcount == 1
        and not (code.co_names or code.co_freevars or code.co_kwonlyargcount)
        and not any(
            ins.argval == code.co_varnames[0] for ins in dis.get_instructions(code)
        )
    )


def _constant_keys(element: Pattern) -> tuple[tuple[str, Any], ...]:
    """``(attribute, value)`` for every key function of ``element`` that
    never reads its bindings; such a key is evaluated here, once."""
    return tuple(
        (attr, fn(None))
        for attr, fn in sorted((element.keys or {}).items())
        if hasattr(fn, "__code__") and _is_constant(fn.__code__)
    )


class PositionPlan:
    """Static join information for one Pattern position of a rule."""

    __slots__ = ("index", "element", "fact_type", "binding", "key_attrs",
                 "const_keys")

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
        #: key equalities that hold whatever the bindings: a fact whose
        #: attributes differ cannot pass the guard (keys are implied by it)
        self.const_keys = _constant_keys(element)


class RulePlan:
    """One rule's compiled execution plan."""

    __slots__ = ("rule", "order", "kind", "reason", "positions",
                 "gates", "alpha", "lone", "slots")

    def __init__(self, rule: Rule, order: int, kind: str, reason: str,
                 positions: list[PositionPlan]):
        self.rule = rule
        #: definition index — the salience tie-breaker
        self.order = order
        self.kind = kind
        #: why the rule fell off the join fast path ("" when it didn't)
        self.reason = reason
        #: Pattern positions in condition order (join plans: all of them)
        self.positions = positions
        #: the non-Pattern elements (Absent / Collect) — the gates whose
        #: truth a mutation of their fact type may flip.
        self.gates: tuple = tuple(el for el in rule.when if not isinstance(el, Pattern))
        #: the position whose alpha memory routes changes to this rule:
        #: the first condition element when it is a Pattern, else None
        #: (such a rule is visited on every mutation of its types).
        self.alpha: Optional[PositionPlan] = (
            positions[0] if positions and positions[0].index == 0 else None
        )
        #: the rule is that one bound pattern and nothing else
        self.lone = (
            len(rule.when) == 1 and self.alpha is not None and bool(self.alpha.binding)
        )
        #: per condition element, its index into a candidate's
        #: position-ordered facts (-1 for non-Pattern elements)
        by_index = {p.index: slot for slot, p in enumerate(positions)}
        self.slots: tuple[int, ...] = tuple(
            by_index.get(i, -1) for i in range(len(rule.when))
        )


def _classify(rule: Rule, order: int) -> RulePlan:
    positions = [
        PositionPlan(i, el)
        for i, el in enumerate(rule.when)
        if isinstance(el, Pattern)
    ]
    for el in rule.when:
        if not isinstance(el, Pattern):
            return RulePlan(
                rule, order, PLAN_DELTA,
                f"condition {type(el).__name__} is not a join-network element",
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

    def dispatch(self, fact_type: type) -> list[tuple[RulePlan, Optional[tuple]]]:
        """Plans interested in mutations of ``fact_type`` and how each is
        routed to: None for a plan that sees every mutation of its types,
        ``(head, wide, later)`` for an alpha-routed one — its position 0
        when the type feeds it; whether the type reaches a gate or a
        later position without constant keys (it then matters whenever
        the alpha memory is non-empty); the constant keys of the later
        positions it feeds (None: it feeds position 0 only)."""
        out: list[tuple[RulePlan, Optional[tuple]]] = []
        for plan in self.plans:
            if not issubclass(fact_type, plan.rule.types):
                continue
            head = plan.alpha
            if head is None:
                out.append((plan, None))
                continue
            later = [
                p.const_keys for p in plan.positions[1:]
                if issubclass(fact_type, p.fact_type)
            ]
            gated = any(issubclass(fact_type, g.fact_type) for g in plan.gates)
            out.append((plan, (
                head if issubclass(fact_type, head.fact_type) else None,
                gated or () in later,
                tuple(later) if later or gated else None,
            )))
        return out


def compile_rules(rules: Sequence[Rule]) -> CompiledRuleset:
    """Compile a rule pack into join-network execution plans."""
    return CompiledRuleset(rules)

