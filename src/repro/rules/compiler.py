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

Each plan also carries ``reads``: every attribute name the rule's
constraints and guards may read, the guards' derived from their
bytecode (``None`` when the scan cannot bound it).  An update that
changes none of them leaves every condition of the rule as it was, so
the network re-offers what the rule already stores instead of
re-deriving it (``docs/engine.md``,
"Read-gated updates").  ``gate_reads`` holds the same scan per gate, so
a delta rule skips re-enumerating for an update no gate reads.
"""

from __future__ import annotations

import builtins
import dis
import sys
import types
from typing import Callable, Optional, Sequence

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


# ------------------------------------------------------------ read sets
#: opcodes that reach state a name scan cannot bound: an import, a
#: method call, and a callee that is neither a global nor a nested
#: function (``PUSH_NULL`` precedes it)
_UNBOUNDED_OPS = frozenset({"IMPORT_NAME", "PUSH_NULL", "LOAD_METHOD"})
#: 3.12 folds LOAD_METHOD into LOAD_ATTR, flagged by the low bit of its arg
_METHOD_FLAG = sys.version_info >= (3, 12)
#: before 3.11 a call's callee carries no marker (no PUSH_NULL, no
#: LOAD_GLOBAL low bit): every scan gives up there
_CALLEES_MARKED = sys.version_info >= (3, 11)
#: builtins a guard may name or call: none reads an attribute by name or
#: calls back into code the scan has not seen
_PURE_BUILTINS = frozenset({
    "abs", "all", "any", "bool", "dict", "divmod",
    "enumerate", "float", "frozenset", "int", "isinstance", "issubclass",
    "len", "list", "range", "reversed", "round", "set", "str", "sum",
    "tuple", "zip",
})
#: the dunders a fact class may define that no guard expression runs;
#: any other (comparison, hashing, arithmetic, formatting, attribute
#: fallback, ...) runs code on a guard's behalf that no name reveals
_INERT_DUNDERS = frozenset({
    "__init__", "__new__", "__post_init__", "__init_subclass__",
    "__class_getitem__", "__dict__", "__weakref__",
})
_MISSING = object()
#: (code, id(module globals)) -> (module globals, read set); the globals
#: are held so their id cannot be reused while the entry lives
_SCANS: dict[tuple, tuple] = {}


def _function_reads(fn: Callable) -> Optional[frozenset]:
    """Names ``fn`` may read: the ``co_names`` of its code, of the code
    nested in it and of the module-level helpers it reaches.  None when
    it reaches state the scan cannot bound (see :data:`_UNBOUNDED_OPS`;
    a helper that reaches itself counts too).  Scanned once per code
    object and module."""
    code = getattr(fn, "__code__", None)
    scope = getattr(fn, "__globals__", None)
    if (
        not _CALLEES_MARKED
        or not isinstance(code, types.CodeType)
        or not isinstance(scope, dict)
    ):
        return None
    key = (code, id(scope))
    hit = _SCANS.get(key)
    if hit is None:
        _SCANS[key] = (scope, None)
        _SCANS[key] = hit = (scope, _code_reads(code, scope))
    return hit[1]


def _code_reads(code: types.CodeType, scope: dict) -> Optional[frozenset]:
    names = set(code.co_names)
    for ins in dis.get_instructions(code):
        op, flag = ins.opname, bool((ins.arg or 0) & 1)
        if op in _UNBOUNDED_OPS or (op == "LOAD_ATTR" and _METHOD_FLAG and flag):
            return None
        if op == "LOAD_GLOBAL":
            # LOAD_GLOBAL's flag: the global is a callee
            found = _global_reads(ins.argval, scope, flag)
            if found is None:
                return None
            names |= found
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            found = _code_reads(const, scope)
            if found is None:
                return None
            names |= found
    return frozenset(names)


def _global_reads(name: str, scope: dict, callee: bool) -> Optional[frozenset]:
    """What a global ``name`` adds to a read set: a module-level helper's
    own reads; nothing for a pure builtin, a constant, or a class named
    but not called; None for anything else (a module, another callable,
    a class called, a name that does not resolve)."""
    target = scope.get(name, _MISSING)
    if target is _MISSING:
        return frozenset() if name in _PURE_BUILTINS and hasattr(builtins, name) else None
    if isinstance(target, types.FunctionType):
        return _function_reads(target)
    if isinstance(target, type):
        return None if callee else frozenset()
    if callable(target) or isinstance(target, types.ModuleType):
        return None
    return frozenset()


def _fact_classes(fact_types) -> set:
    """The classes a fact matched by these types may be an instance of,
    with their bases: every subclass, and every class in their MRO."""
    found: set = set()
    todo = list(fact_types)
    while todo:
        cls = todo.pop()
        if cls in found:
            continue
        found.add(cls)
        todo.extend(cls.__subclasses__())
    return {base for cls in found for base in cls.__mro__ if base is not object}


def _computed(value) -> bool:
    """Is this class attribute computed on access (a method, property or
    other descriptor) rather than a stored value?"""
    return hasattr(type(value), "__get__") and not isinstance(
        value, types.MemberDescriptorType
    )


def _scan(element) -> Optional[frozenset]:
    """Every name ``element``'s guard may read, plus its constrained
    attributes and the attributes its references read; None when the
    guard reaches state the scan cannot bound."""
    names = set(element.constraints) | {ref.attr for ref in element.refs()}
    if element.where is not None:
        found = _function_reads(element.where)
        if found is None:
            return None
        names |= found
    return frozenset(names)


def _element_reads(rule: Rule) -> tuple[Optional[frozenset], ...]:
    """Per condition element of ``rule``, its :func:`_scan`; None where a
    fact class the rule matches defines one of the names as a method or
    property (the classes of every position count: a guard also reads
    the facts bound before it), and everywhere when one defines a dunder
    a guard expression may run."""
    scans = [_scan(element) for element in rule.when]
    read = set().union(*(names for names in scans if names is not None))
    for cls in _fact_classes(rule.types):
        for name, value in vars(cls).items():
            dunder = name[:2] == name[-2:] == "__" and name not in _INERT_DUNDERS
            if (dunder or name in read) and _computed(value):
                if dunder:
                    return (None,) * len(scans)
                scans = [None if names is None or name in names else names
                         for names in scans]
    return tuple(scans)


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
        #: pattern states no equality constraint.
        self.key_attrs: Optional[tuple[str, ...]] = element.key_attrs
        #: the constant constraints: a fact whose attributes differ
        #: cannot match the position, whatever the bindings
        self.const_keys = element.const_keys


class RulePlan:
    """One rule's compiled execution plan."""

    __slots__ = ("rule", "order", "kind", "reason", "positions",
                 "gates", "alpha", "lone", "slots", "reads", "gate_reads")

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
        reads = _element_reads(rule)
        bounded = [r for r in reads if r is not None]
        #: every attribute name the rule's constraints and guards may
        #: read (None: unbounded) — an update changing none of them
        #: cannot change what the rule matches
        self.reads: Optional[frozenset] = (
            frozenset().union(*bounded) if len(bounded) == len(reads) else None
        )
        #: per gate, what its constraints and guard may read (None:
        #: unbounded) — an update changing none of it leaves the gate's
        #: truth, and a Collect's membership, as it was
        self.gate_reads: tuple[Optional[frozenset], ...] = tuple(
            r for el, r in zip(rule.when, reads) if not isinstance(el, Pattern)
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

