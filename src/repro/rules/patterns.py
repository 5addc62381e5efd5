"""Condition elements for rules.

A rule's left-hand side is an ordered list of condition elements, evaluated
left to right with accumulated bindings (a nested-loop join over indexed
candidate sets):

``Pattern(T, binding="x", where=guard, **constraints)``
    Matches each live fact of type ``T`` that meets the constraints and
    for which ``guard(fact, bindings)`` is true, binding it under
    ``binding``.
``Absent(T, where=guard, **constraints)``
    Matches when *no* live fact of ``T`` meets them (negation as failure,
    Drools ``not``).
``Collect(T, binding="xs", where=guard, min_count=0, **constraints)``
    Binds the list of all matching facts (Drools ``collect`` /
    ``accumulate``); fails when fewer than ``min_count`` match.

Guards take ``(fact, bindings)`` — bindings is a dict of previously bound
names.

Equality constraints
--------------------
Each keyword constraint states that the fact's attribute equals either a
constant (``status="new"``) or an attribute of a fact an earlier Pattern
bound (``lfn=Ref("t", "lfn")``), as a Drools pattern writes
``TransferFact(status == "new", lfn == $t.lfn)``.  The constraints are the
element's index key: it fetches its candidates with
:meth:`~repro.rules.facts.WorkingMemory.lookup_keyed` (a hash-index probe
on the sorted constraint attributes) instead of scanning the whole type
extent, and the guard judges only what is left.  An equality stated as a
constraint is stated once; the guard does not repeat it.  A fact missing
a constrained attribute, or a reference whose bound fact lacks the
attribute, matches nothing, as a guard raising :class:`AttributeError`
does.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Optional, Type

from repro.rules.facts import Fact

__all__ = ["Pattern", "Absent", "Collect", "Ref"]

Guard = Callable[[Fact, dict], bool]


def _check(guard: Optional[Guard], fact: Fact, bindings: dict) -> bool:
    if guard is None:
        return True
    try:
        return bool(guard(fact, bindings))
    except AttributeError:
        # A guard probing attributes absent on a subclass simply fails to
        # match rather than crashing rule evaluation.
        return False


class Ref:
    """``Ref("t", "lfn")``: the ``lfn`` of the fact bound as ``t``, the
    right-hand side of an equality constraint (Drools ``$t.lfn``)."""

    __slots__ = ("binding", "attr")

    def __init__(self, binding: str, attr: str):
        if not (isinstance(binding, str) and binding and isinstance(attr, str) and attr):
            raise TypeError("Ref takes a binding name and an attribute name")
        self.binding = binding
        self.attr = attr

    def __repr__(self) -> str:
        return f"Ref({self.binding!r}, {self.attr!r})"


class ConditionElement:
    """What ``Pattern``, ``Absent`` and ``Collect`` share: a fact type, its
    equality constraints and guard, and candidate selection.  Each
    implements ``expand(memory, bindings)``, the extended binding dicts
    for each way it matches."""

    __slots__ = ("fact_type", "where", "constraints", "key_attrs", "const_keys",
                 "_spec", "_const_key", "_get", "_single")
    expand: Callable[[Any, dict], list[dict]]

    def __init__(
        self, fact_type: Type[Fact], where: Optional[Guard], constraints: dict[str, Any],
    ):
        name = type(self).__name__
        if not (isinstance(fact_type, type) and issubclass(fact_type, Fact)):
            raise TypeError(f"{name} requires a Fact subclass, got {fact_type!r}")
        if "keys" in constraints:
            raise TypeError(f"{name} takes equality constraints (attr=value or "
                            f"attr=Ref(binding, attr)), not keys=")
        for attr, value in constraints.items():
            if not isinstance(value, Ref):
                if callable(value):
                    raise TypeError(f"{name} constraint {attr}= must be a constant "
                                    f"or a Ref, not a callable")
                hash(value)  # an index key: unhashable values raise TypeError
        self.fact_type = fact_type
        self.where = where
        self.constraints = dict(constraints)
        ordered = sorted(constraints.items())
        #: the constrained attributes sorted (the index they probe); None
        #: without constraints
        self.key_attrs: Optional[tuple[str, ...]] = tuple(a for a, _v in ordered) or None
        #: ``(attribute, value)`` for each constant constraint, sorted
        self.const_keys: tuple[tuple[str, Any], ...] = tuple(
            (a, v) for a, v in ordered if not isinstance(v, Ref)
        )
        #: per key attribute: (reader, binding name) for a reference,
        #: (None, value) for a constant
        self._spec = tuple(
            (attrgetter(v.attr), v.binding) if isinstance(v, Ref) else (None, v)
            for _a, v in ordered
        )
        #: the whole key when every constraint is a constant
        self._const_key = (
            tuple(v for _a, v in self.const_keys)
            if len(self.const_keys) == len(ordered) else None
        )
        #: reads a fact's key attributes (one value when there is one)
        self._get = attrgetter(*self.key_attrs) if self.key_attrs else None
        self._single = len(ordered) == 1

    def refs(self) -> list[Ref]:
        """The references among the constraints."""
        return [v for v in self.constraints.values() if isinstance(v, Ref)]

    def key(self, bindings: dict) -> Optional[tuple]:
        """The values the key attributes must equal under ``bindings``
        (in ``key_attrs`` order); None when a reference cannot be read,
        and then nothing matches."""
        key = self._const_key
        if key is None:
            try:
                key = tuple([
                    value if read is None else read(bindings[value])
                    for read, value in self._spec
                ])
            except (KeyError, AttributeError):
                return None
        return key

    def fact_key(self, fact: Fact) -> Optional[tuple]:
        """``fact``'s values of the key attributes; None when it lacks
        one (``()`` without constraints)."""
        if self._get is None:
            return ()
        try:
            values = self._get(fact)
        except AttributeError:
            return None
        return (values,) if self._single else values

    def holds(self, fact: Fact, bindings: dict) -> bool:
        """Does ``fact`` meet every constraint under ``bindings``?  For
        callers holding a fact that no index probe of this element
        returned; what :meth:`candidates` returns meets them already."""
        if self._get is None:
            return True
        key = self._const_key
        if key is None:
            key = self.key(bindings)
            if key is None:
                return False
        try:
            values = self._get(fact)
        except AttributeError:
            return False
        return (values,) == key if self._single else values == key

    def candidates(self, memory, bindings: dict) -> list[Fact]:
        """The facts meeting the constraints, via the key index."""
        if self.key_attrs is None:
            return memory.facts_of(self.fact_type)
        key = self._const_key
        if key is None:
            key = self.key(bindings)
            if key is None:
                return []
        return memory.lookup_keyed(self.fact_type, self.key_attrs, key)


class Pattern(ConditionElement):
    """Positive match on one fact of a type."""

    __slots__ = ("binding",)

    def __init__(
        self,
        fact_type: Type[Fact],
        binding: Optional[str] = None,
        where: Optional[Guard] = None,
        **constraints: Any,
    ):
        super().__init__(fact_type, where, constraints)
        self.binding = binding

    def expand(self, memory, bindings: dict) -> list[dict]:
        return self._extend(self.candidates(memory, bindings), bindings)

    def expand_over(self, facts, bindings: dict) -> list[dict]:
        """Expand over an explicit candidate list (incremental matching)."""
        return self._extend([f for f in facts if self.holds(f, bindings)], bindings)

    def _extend(self, facts, bindings: dict) -> list[dict]:
        out = []
        for fact in facts:
            if _check(self.where, fact, bindings):
                if self.binding:
                    new = dict(bindings)
                    new[self.binding] = fact
                    out.append(new)
                else:
                    out.append(dict(bindings))
        return out


class Absent(ConditionElement):
    """Negation: succeeds when no fact of the type matches."""

    __slots__ = ()

    def __init__(
        self, fact_type: Type[Fact], where: Optional[Guard] = None, **constraints: Any,
    ):
        super().__init__(fact_type, where, constraints)

    def expand(self, memory, bindings: dict) -> list[dict]:
        for fact in self.candidates(memory, bindings):
            if _check(self.where, fact, bindings):
                return []
        return [dict(bindings)]


class Collect(ConditionElement):
    """Bind the list of all matching facts."""

    __slots__ = ("binding", "min_count")

    def __init__(
        self,
        fact_type: Type[Fact],
        binding: str,
        where: Optional[Guard] = None,
        min_count: int = 0,
        **constraints: Any,
    ):
        super().__init__(fact_type, where, constraints)
        if not binding:
            raise ValueError("Collect requires a binding name")
        self.binding = binding
        self.min_count = int(min_count)

    def expand(self, memory, bindings: dict) -> list[dict]:
        matches = [
            fact
            for fact in self.candidates(memory, bindings)
            if _check(self.where, fact, bindings)
        ]
        if len(matches) < self.min_count:
            return []
        new = dict(bindings)
        new[self.binding] = matches
        return [new]
