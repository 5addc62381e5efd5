"""Condition elements for rules.

A rule's left-hand side is an ordered list of condition elements, evaluated
left to right with accumulated bindings (a nested-loop join over indexed
candidate sets):

``Pattern(T, binding="x", where=guard, keys=...)``
    Matches each live fact of type ``T`` for which ``guard(fact, bindings)``
    is true, binding it under ``binding``.
``Absent(T, where=guard, keys=...)``
    Matches when *no* live fact of ``T`` satisfies the guard (negation as
    failure, Drools ``not``).
``Collect(T, binding="xs", where=guard, min_count=0, keys=...)``
    Binds the list of all matching facts (Drools ``collect`` /
    ``accumulate``); fails when fewer than ``min_count`` match.

Guards take ``(fact, bindings)`` — bindings is a dict of previously bound
names.

Indexed candidate selection
---------------------------
``keys`` is an optional ``{attribute: key_fn}`` dict where each
``key_fn(bindings)`` computes the value the fact's attribute must equal.
The element then fetches its candidates with
:meth:`~repro.rules.facts.WorkingMemory.lookup` (a hash-index probe)
instead of scanning the whole type extent.  The guard still runs over the
candidates, so ``keys`` is purely an access-path hint — but it MUST be
implied by the guard (every fact the guard accepts must also satisfy the
key equalities), otherwise matches are silently lost.  A ``key_fn``
raising :class:`AttributeError` falls back to the full scan, mirroring the
guard semantics below.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Type

from repro.rules.facts import Fact

__all__ = ["Pattern", "Absent", "Collect"]

Guard = Callable[[Fact, dict], bool]
KeySpec = Optional[dict[str, Callable[[dict], Any]]]


def _check(guard: Optional[Guard], fact: Fact, bindings: dict) -> bool:
    if guard is None:
        return True
    try:
        return bool(guard(fact, bindings))
    except AttributeError:
        # A guard probing attributes absent on a subclass simply fails to
        # match rather than crashing rule evaluation.
        return False


def _validate_keys(name: str, keys: KeySpec) -> KeySpec:
    if keys is None:
        return None
    if not isinstance(keys, dict) or not keys:
        raise TypeError(f"{name} keys must be a non-empty dict of attr -> key_fn")
    for attr, fn in keys.items():
        if not isinstance(attr, str) or not attr:
            raise TypeError(f"{name} keys attribute names must be strings")
        if not callable(fn):
            raise TypeError(f"{name} keys[{attr!r}] must be callable(bindings)")
    return dict(keys)


class ConditionElement:
    """What ``Pattern``, ``Absent`` and ``Collect`` share: a fact type, its
    guard and key index, and candidate selection.  Each implements
    ``expand(memory, bindings)``, the extended binding dicts for each way
    it matches."""

    __slots__ = ("fact_type", "where", "keys", "reads")
    expand: Callable[[Any, dict], list[dict]]

    def __init__(
        self,
        fact_type: Type[Fact],
        where: Optional[Guard],
        keys: KeySpec,
        reads: Optional[Iterable[str]] = None,
    ):
        name = type(self).__name__
        if not (isinstance(fact_type, type) and issubclass(fact_type, Fact)):
            raise TypeError(f"{name} requires a Fact subclass, got {fact_type!r}")
        self.fact_type = fact_type
        self.where = where
        self.keys = _validate_keys(name, keys)
        #: optional declaration of the fact attributes the guard (and the
        #: key equalities) consult.  When set, the join network may
        #: skip re-evaluating this element for an update that changed
        #: none of the listed attributes — the element's truth value
        #: provably cannot have flipped.  MUST cover everything the guard
        #: reads from the candidate fact, else matches are silently
        #: stale.  ``None`` (default) means unknown: always re-evaluate.
        if reads is not None:
            reads = frozenset(reads)
            if not reads or not all(
                isinstance(a, str) and a for a in reads
            ):
                raise TypeError(
                    f"{name} reads must be a non-empty iterable of attribute names"
                )
        self.reads: Optional[frozenset] = reads

    def candidates(self, memory, bindings: dict) -> list[Fact]:
        """Facts this element may match, narrowed via the key index."""
        if self.keys is not None:
            try:
                values = {attr: fn(bindings) for attr, fn in self.keys.items()}
            except AttributeError:
                values = None
            if values is not None:
                return memory.lookup(self.fact_type, **values)
        return memory.facts_of(self.fact_type)


class Pattern(ConditionElement):
    """Positive match on one fact of a type."""

    __slots__ = ("binding",)

    def __init__(
        self,
        fact_type: Type[Fact],
        binding: Optional[str] = None,
        where: Optional[Guard] = None,
        keys: KeySpec = None,
        reads: Optional[Iterable[str]] = None,
    ):
        super().__init__(fact_type, where, keys, reads)
        self.binding = binding

    def expand(self, memory, bindings: dict) -> list[dict]:
        return self.expand_over(self.candidates(memory, bindings), bindings)

    def expand_over(self, facts, bindings: dict) -> list[dict]:
        """Expand over an explicit candidate list (incremental matching)."""
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
    """Negation: succeeds when no fact of the type passes the guard."""

    __slots__ = ()

    def __init__(
        self,
        fact_type: Type[Fact],
        where: Optional[Guard] = None,
        keys: KeySpec = None,
        reads: Optional[Iterable[str]] = None,
    ):
        super().__init__(fact_type, where, keys, reads)

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
        keys: KeySpec = None,
        reads: Optional[Iterable[str]] = None,
    ):
        super().__init__(fact_type, where, keys, reads)
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
