"""Rule-interaction graph: who produces, consumes, updates and retracts what.

The verifier's static substrate.  Every rule is summarized into a
:class:`~repro.analysis.probing.RuleIO` (the summary the linter reads
too) — fact types and attributes its conditions read (with the
*necessary equality domains* its guards impose on each candidate) and the
working-memory effects of its action (from bytecode scanning, see
:func:`repro.analysis.probing.action_effects`).  :class:`InteractionGraph`
then materializes directed edges "firing A can change what B sees":

* ``insert``  — A inserts a type some element of B matches on
* ``update``  — A updates attributes B's guards/keys read
* ``retract`` — A retracts a type some element of B matches on

An abstract-interpretation pass over the guard attribute domains prunes
edges that cannot happen: an update whose candidate's ``status`` is
provably outside the reader's accepted set both before and after the
write, a retract whose candidate domain is disjoint from the reader's,
an insert whose unconditional constructor state the reader rejects.
Pruned edges are kept (``feasible=False``) for explainability; all
graph consumers look only at feasible ones.

Everything here over-approximates on uncertainty: opaque actions (targets
resolved through memory scans) interfere with every referenced type, and
a rule reads what its compiled plan reads (``RulePlan.reads``; None =
"may read anything").  Under-approximation only enters through the
*domains*, which are themselves conservative (``None`` whenever a guard
has no conjunctive reading).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Type

from repro.analysis.probing import (
    ElementIO,
    FactFactory,
    RuleIO,
    entry_defaults,
    rule_io,
    signature_of,
)
from repro.rules.compiler import compile_rules
from repro.rules.engine import Rule
from repro.rules.facts import Fact

__all__ = [
    "Edge",
    "InteractionGraph",
    "build_graph",
]


# --------------------------------------------------------------------------
# Edges
# --------------------------------------------------------------------------
@dataclass
class Edge:
    """Directed interaction: firing ``src`` can change what ``dst`` sees."""

    src: str
    dst: str
    kind: str                   #: "insert" | "update" | "retract"
    fact_type: Type[Fact]
    attrs: Optional[tuple]      #: overlapping attrs for updates (None = all)
    feasible: bool
    reason: str

    def describe(self) -> str:
        via = "" if not self.attrs else f" via {','.join(sorted(self.attrs))}"
        return f"{self.src} --{self.kind} {self.fact_type.__name__}{via}--> {self.dst}"


def _domain_union(
    elements: Sequence[ElementIO], attr: str
) -> Optional[frozenset]:
    """Values ``attr`` may hold across a rule's candidate elements of one
    type; None = unconstrained by at least one element (no pruning)."""
    out: set = set()
    for element in elements:
        if element.domains is None or attr not in element.domains:
            return None
        out |= element.domains[attr]
    return frozenset(out) if elements else None


class InteractionGraph:
    """All pairwise interaction edges of a rule pack, feasibility-pruned."""

    def __init__(self, rules: Sequence[Rule], factory: Optional[FactFactory] = None):
        self.rules = list(rules)
        self.nodes: dict[str, RuleIO] = {}
        for plan in compile_rules(self.rules).plans:
            self.nodes[plan.rule.name] = rule_io(plan)
        self._factory = factory
        self._init_defaults: dict[Type[Fact], dict] = {}
        self.edges: list[Edge] = []
        for a in self.nodes.values():
            for b in self.nodes.values():
                if a.name != b.name:
                    self.edges.extend(self._edges_between(a, b))

    # -- constructor-state defaults (insert-edge pruning) -------------------
    def _unconditional_defaults(self, fact_type: Type[Fact]) -> dict:
        """attr -> value every freshly constructed ``fact_type`` starts
        with regardless of constructor arguments (not a parameter at all,
        set unconditionally by ``__init__``)."""
        if fact_type in self._init_defaults:
            return self._init_defaults[fact_type]
        defaults: dict = {}
        if self._factory is not None:
            signature = signature_of(fact_type)
            params = set(signature.parameters) if signature else set()
            defaults = {
                attr: value
                for attr, value in entry_defaults(fact_type, self._factory).items()
                if attr not in params
            }
        self._init_defaults[fact_type] = defaults
        return defaults

    # -- edge construction ---------------------------------------------------
    def _edges_between(self, a: RuleIO, b: RuleIO) -> Iterable[Edge]:
        edges: list[Edge] = []

        def add(kind, fact_type, attrs, feasible, reason):
            edges.append(
                Edge(a.name, b.name, kind, fact_type,
                     tuple(sorted(attrs)) if attrs else None, feasible, reason)
            )

        # inserts: fresh facts can (dis)enable any element of the type —
        # Pattern/Collect gain candidates, Absent loses its blank.
        for fact_type in a.effects.inserts:
            for element in b.elements_of(fact_type):
                feasible, reason = True, "fresh fact may match"
                if element.domains:
                    init = self._unconditional_defaults(fact_type)
                    for attr, allowed in element.domains.items():
                        if attr in init:
                            try:
                                rejected = init[attr] not in allowed
                            except TypeError:
                                rejected = False
                            if rejected:
                                feasible = False
                                reason = (
                                    f"constructor sets {attr}={init[attr]!r}, "
                                    f"guard requires {sorted(map(repr, allowed))}"
                                )
                                break
                add("insert", fact_type, None, feasible, reason)

        # updates: attribute-level overlap with the reader, domain-pruned.
        for fact_type in a.updated_types():
            written = a.updated_attrs(fact_type)
            reader_elements = b.elements_of(fact_type)
            if not reader_elements:
                continue
            if written is None or b.reads is None:
                overlap = None
            else:
                overlap = written & b.reads
                if not overlap:
                    add("update", fact_type, written, False,
                        "written attrs never read by target")
                    continue
            # before-value in A's candidate domain, after-value in the
            # written constants; if both provably outside B's accepted
            # domain for some attr, the fact is invisible to B throughout.
            feasible, reason = True, "written attrs read by target"
            a_elements = a.elements_of(fact_type)
            for elem in reader_elements:
                if not elem.domains:
                    continue
                for attr, allowed in elem.domains.items():
                    before = _domain_union(a_elements, attr) if a_elements else None
                    if written is None:
                        after = None  # opaque write: could set anything
                    elif attr in written:
                        values = a.effects.written_values(fact_type, attr)
                        after = frozenset(values) if values is not None else None
                    else:
                        after = before
                    if before is None or after is None:
                        continue
                    if not (before & allowed) and not (after & allowed):
                        feasible = False
                        reason = (
                            f"{attr} is outside the reader's accepted set "
                            f"both before and after the write"
                        )
                        break
                if not feasible:
                    break
            add("update", fact_type, overlap, feasible, reason)

        # retracts: removing a fact (dis)enables any element of the type.
        retracted = set(a.effects.retracts)
        if a.effects.opaque:
            retracted |= {
                t for t in a.approx_written_types
                if t not in a.effects.inserts
            }
        for fact_type in retracted:
            a_elements = a.elements_of(fact_type)
            for element in b.elements_of(fact_type):
                feasible, reason = True, "retracted fact may be matched"
                if element.domains and a_elements:
                    for attr, allowed in element.domains.items():
                        mine = _domain_union(a_elements, attr)
                        if mine is not None and not (mine & allowed):
                            feasible = False
                            reason = (
                                f"{attr} domains disjoint: retractor sees "
                                f"{sorted(map(repr, mine))}, reader needs "
                                f"{sorted(map(repr, allowed))}"
                            )
                            break
                add("retract", fact_type, None, feasible, reason)
        return edges

    # -- queries -------------------------------------------------------------
    def feasible_edges(self, src: str, dst: str) -> list[Edge]:
        return [
            e for e in self.edges if e.src == src and e.dst == dst and e.feasible
        ]

    def interference(self, a: str, b: str) -> list[str]:
        """Why firing order of equal-salience rules ``a``/``b`` may matter.

        Empty list = statically proven commuting (up to the abstraction):
        neither rule's action can change what the other matches, and they
        never write the same attribute of the same fact.
        """
        reasons = [e.describe() for e in self.feasible_edges(a, b)]
        reasons += [e.describe() for e in self.feasible_edges(b, a)]
        io_a, io_b = self.nodes[a], self.nodes[b]
        for fact_type in io_a.updated_types() & io_b.updated_types():
            wa = io_a.updated_attrs(fact_type)
            wb = io_b.updated_attrs(fact_type)
            shared = None if (wa is None or wb is None) else wa & wb
            if shared is not None and not shared:
                continue
            # same single constant written by both -> last-writer invisible
            if shared:
                benign = all(
                    io_a.effects.written_values(fact_type, attr)
                    == io_b.effects.written_values(fact_type, attr)
                    and io_a.effects.written_values(fact_type, attr) is not None
                    and len(io_a.effects.written_values(fact_type, attr)) == 1
                    for attr in shared
                )
                if benign:
                    continue
            # disjoint candidate domains -> they update different facts
            ea, eb = io_a.elements_of(fact_type), io_b.elements_of(fact_type)
            disjoint = False
            for elem in eb:
                if not elem.domains:
                    continue
                for attr, allowed in elem.domains.items():
                    mine = _domain_union(ea, attr) if ea else None
                    if mine is not None and not (mine & allowed):
                        disjoint = True
            if disjoint:
                continue
            names = "all attrs" if shared is None else ",".join(sorted(shared))
            reasons.append(
                f"{a} and {b} both write {fact_type.__name__}({names})"
            )
        return reasons

    def retract_while_referenced(self) -> Iterable[tuple]:
        """``(retractor, reader, fact_type, reason)`` where a higher tier
        retracts facts a lower tier still positively matches on, and the
        guard domains cannot prove the two never see the same fact.

        Only *exact* retracts participate; opaque actions are reported
        separately by the verifier (one incompleteness note per rule)."""
        for a in self.nodes.values():
            if a.effects.opaque:
                continue
            for fact_type in a.effects.retracts:
                a_elements = a.elements_of(fact_type)
                for b in self.nodes.values():
                    if b.name == a.name or b.salience >= a.salience:
                        continue
                    for element in b.elements_of(fact_type):
                        if not element.positive:
                            continue
                        compatible = True
                        detail = "guard domains overlap"
                        if element.domains and a_elements:
                            for attr, allowed in element.domains.items():
                                mine = _domain_union(a_elements, attr)
                                if mine is not None and not (mine & allowed):
                                    compatible = False
                                    break
                        if compatible:
                            yield (a, b, fact_type, detail)
                            break


def build_graph(rules: Sequence[Rule], factory: Optional[FactFactory] = None) -> InteractionGraph:
    """Build the interaction graph for a rule pack."""
    return InteractionGraph(rules, factory)
