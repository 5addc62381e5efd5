"""The rule engine: rules, activations, sessions.

Semantics (modelled on Drools):

* ``Session.fire_all()`` repeatedly takes the first un-fired *activation*
  in (salience desc, fact arrival order, rule-definition order) and fires
  it, until none is left.
* **Refraction**: an activation is identified by (rule, matched fact ids,
  fact versions).  Once fired it never fires again unless one of its facts
  is updated (version bump) — exactly like Drools' tuple memory.
* **no_loop**: a rule marked ``no_loop=True`` will not re-activate when the
  only change to its matched facts since its last firing was made by the
  rule itself (prevents trivial self-loops on ``ctx.update``).
* A ``max_firings`` guard raises :class:`RuleEngineError` instead of
  spinning forever if a rule set diverges.

Actions receive an :class:`ActivationContext` giving attribute access to the
bindings plus ``insert`` / ``update`` / ``retract`` / ``halt`` and the
session ``globals`` dict (configuration values such as stream thresholds).

Matching is done by a :class:`~repro.rules.network.JoinNetwork` compiled
from the rule pack (:mod:`repro.rules.compiler`) and driven by the
memory's change log; ``docs/engine.md`` describes it.  The matcher tests
compare it against, which re-enumerates every match on every scan, is
:class:`repro.rules.reference.ReferenceSession`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.rules.facts import Fact, WorkingMemory
from repro.rules.patterns import ConditionElement, Pattern

__all__ = ["Rule", "Session", "RuleEngineError", "ActivationContext"]


class RuleEngineError(RuntimeError):
    """Raised for diverging rule sets or malformed rules."""


class Rule:
    """A named production: condition elements + action.

    Parameters
    ----------
    name:
        Unique rule name (used in traces and refraction bookkeeping).
    when:
        Ordered condition elements (see :mod:`repro.rules.patterns`).
    then:
        ``action(ctx)`` callable run for each activation.
    salience:
        Higher fires earlier (Drools convention).  Default 0.
    no_loop:
        Suppress re-activation caused solely by this rule's own updates.
    """

    def __init__(
        self,
        name: str,
        when: Sequence[ConditionElement],
        then: Callable[["ActivationContext"], None],
        salience: int = 0,
        no_loop: bool = False,
    ):
        if not name:
            raise ValueError("rules require a name")
        if not callable(then):
            raise TypeError(f"rule {name!r}: action must be callable")
        when = list(when)
        if not when:
            raise ValueError(f"rule {name!r}: needs at least one condition element")
        bound: set = set()
        for element in when:
            if not isinstance(element, ConditionElement):
                raise TypeError(
                    f"rule {name!r}: condition {element!r} is not a ConditionElement"
                )
            for ref in element.refs():
                if ref.binding not in bound:
                    raise ValueError(
                        f"rule {name!r}: {ref!r} names no earlier Pattern binding"
                    )
            if isinstance(element, Pattern) and element.binding:
                bound.add(element.binding)
        self.name = name
        self.when = when
        self.then = then
        self.salience = int(salience)
        self.no_loop = bool(no_loop)
        #: fact types this rule's conditions reference
        self.types: tuple[type, ...] = tuple({element.fact_type for element in when})

    def matches(
        self,
        memory: WorkingMemory,
        seed: Optional[dict] = None,
        restrict: Optional[tuple[int, Sequence[Fact]]] = None,
    ) -> list[dict]:
        """All binding dicts satisfying the full LHS.

        ``seed`` pre-populates the bindings every guard sees; sessions seed
        ``{"_globals": session.globals}`` so guards can reference
        configuration (thresholds etc.) just like Drools globals.

        ``restrict=(position, facts)`` limits the Pattern at that condition
        index to the given candidate facts (their constraints checked
        one by one) — the delta-join primitive of the network's ``delta``
        plans.
        """
        frontier: list[dict] = [dict(seed) if seed else {}]
        restrict_ids: Optional[set] = None
        if restrict is not None and len(restrict[1]) > 16:
            restrict_ids = {id(f) for f in restrict[1]}
        for position, element in enumerate(self.when):
            next_frontier: list[dict] = []
            if restrict is not None and position == restrict[0]:
                if restrict_ids is None:
                    # Few dirty facts: probing them directly is cheaper
                    # than an index lookup per binding.
                    for bindings in frontier:
                        next_frontier.extend(
                            element.expand_over(restrict[1], bindings)
                        )
                else:
                    # Large dirty set (batch insert): probe the element's
                    # (possibly keyed) access path and intersect — walking
                    # the whole dirty set per binding would be quadratic.
                    for bindings in frontier:
                        candidates = [
                            f
                            for f in element.candidates(memory, bindings)
                            if id(f) in restrict_ids
                        ]
                        next_frontier.extend(element.expand_over(candidates, bindings))
            else:
                for bindings in frontier:
                    next_frontier.extend(element.expand(memory, bindings))
            if not next_frontier:
                return []
            frontier = next_frontier
        return frontier


class ActivationContext:
    """What a rule action sees when it fires."""

    def __init__(self, session: "Session", rule: Rule, bindings: dict):
        self._session = session
        self.rule = rule
        self.bindings = bindings
        self.globals = session.globals

    def __getattr__(self, name: str) -> Any:
        try:
            return self.bindings[name]
        except KeyError:
            raise AttributeError(f"no binding named {name!r} in rule {self.rule.name!r}")

    # -- working-memory operations (attributed to the firing rule) ---------
    def insert(self, fact: Fact) -> Fact:
        return self._session.insert(fact, _modifier=self.rule.name)

    def update(self, fact: Fact, **changes: Any) -> Fact:
        return self._session.memory.update(fact, self.rule.name, **changes)

    def retract(self, fact: Fact) -> None:
        self._session.retract(fact)

    def halt(self) -> None:
        """Stop ``fire_all`` after this action returns."""
        self._session._halted = True


def _activation_key(memory: WorkingMemory, rule: Rule, bindings: dict):
    """Stable identity of an activation: rule + sorted matched fact ids,
    and their versions in the same order."""
    entry_of = memory.entry_of
    pairs = []
    for value in bindings.values():
        if isinstance(value, Fact):
            entry = entry_of(value)
            if entry is not None:
                pairs.append((entry.fid, entry.version))
        elif isinstance(value, list):  # Collect binding
            for fact in value:
                if isinstance(fact, Fact) and (entry := entry_of(fact)) is not None:
                    pairs.append((entry.fid, entry.version))
    if not pairs:
        return (rule.name, (), ())
    pairs.sort()
    fids, versions = zip(*pairs)
    return (rule.name, fids, versions)


class Session:
    """A stateful rule session over a working memory.

    Parameters
    ----------
    rules:
        The rule pack(s) to evaluate.  Definition order breaks salience ties.
    memory:
        An existing :class:`WorkingMemory` to share (the Policy Service keeps
        one long-lived memory across requests); a fresh one by default.
    globals:
        Named configuration values visible to actions via ``ctx.globals``.
    max_firings:
        Divergence guard per ``fire_all`` call.
    profiler:
        Optional :class:`repro.obs.profiler.RuleProfiler`.  When attached
        the session tallies per-rule match/action wall time, activation
        and fire counts, and samples the agenda size at each firing.
        ``None`` (the default) adds no timing calls to the hot path.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        memory: Optional[WorkingMemory] = None,
        globals: Optional[dict] = None,
        max_firings: int = 100_000,
        profiler: Optional[Any] = None,
    ):
        names: set[str] = set()
        dupes: set[str] = set()
        for rule in rules:
            (dupes if rule.name in names else names).add(rule.name)
        if dupes:
            raise RuleEngineError(f"duplicate rule names: {sorted(dupes)}")
        self.rules = list(rules)
        self.memory = memory if memory is not None else WorkingMemory()
        # The dict is shared, not copied: long-lived state (e.g. the policy
        # service's group-id counter) must survive across sessions, and
        # actions mutate it via ``ctx.globals``.
        self.globals = globals if globals is not None else {}
        self.max_firings = int(max_firings)
        self._fired: set = set()
        # rule name -> {fact-id tuple: versions at last firing}
        self._last_fired_versions: dict[str, dict[tuple, tuple]] = {}
        #: the :class:`~repro.rules.network.JoinNetwork`, built by the
        #: first evaluation and kept
        self.network: Optional[Any] = None
        self._halted = False
        self.trace: list[str] = []
        self.trace_enabled = False
        #: optional ``(rule, bindings, ops)`` callback invoked after every
        #: firing with the change-log slice the action produced — the
        #: decision-provenance hook.
        self.firing_listener: Optional[Callable[[Rule, dict, list], None]] = None
        self.profiler = profiler
        if profiler is not None:
            profiler.register(rule.name for rule in self.rules)

    def reset(self) -> None:
        """Forget everything one evaluation leaves behind, keep the network.

        A long-lived caller (the Policy Service keeps one session for its
        whole life) calls this before each request.  Refraction memory,
        ``no_loop`` history, the halt flag, the firing listener and the
        trace start empty, exactly as in a new session; the network stays,
        is re-armed, and catches up from the memory's change log, which
        is sound because it is a pure function of the memory.
        """
        self._fired = set()
        self._last_fired_versions = {}
        self._halted = False
        self.firing_listener = None
        self.trace = []
        if self.network is not None:
            self.network.rearm()

    # -- memory passthrough --------------------------------------------------
    def insert(self, fact: Fact, _modifier: Optional[str] = None) -> Fact:
        return self.memory.insert(fact, modifier=_modifier)

    def update(self, fact: Fact, _modifier: Optional[str] = None, **changes: Any) -> Fact:
        return self.memory.update(fact, modifier=_modifier, **changes)

    def retract(self, fact: Fact) -> None:
        self.memory.retract(fact)

    # -- firing ----------------------------------------------------------------
    def _suppressed_by_no_loop(self, rule: Rule, key: tuple) -> bool:
        if not rule.no_loop:
            return False
        prior = self._last_fired_versions.get(rule.name, {}).get(key[1])
        if prior is None:
            return False
        # Re-activation allowed only if some matched fact changed since the
        # last firing by someone other than this rule.
        changed_by_other = False
        for fid, old_v, new_v in zip(key[1], prior, key[2]):
            if new_v != old_v:
                fact = self.memory.fact_with_fid(fid)
                if fact is None:
                    return False  # fact replaced; treat as fresh
                if self.memory.modifier_of(fact) != rule.name:
                    changed_by_other = True
        return not changed_by_other

    def _next_activation(self):
        """The next fireable ``(rank, rule, bindings, key)``, or None."""
        if self.network is None:
            # imported here: both modules import this one for ``Rule``
            from repro.rules.compiler import compile_rules
            from repro.rules.network import JoinNetwork

            self.network = JoinNetwork(
                compile_rules(self.rules), self.memory, self.globals,
                profiler=self.profiler,
            )
        return self.network.next_activation(self)

    def _agenda_sample_size(self) -> int:
        """Computed-but-unfired activation count for profiler sampling."""
        return self.network.candidate_count() if self.network is not None else 0

    def fire_all(self) -> int:
        """Fire activations until quiescence; returns the firing count."""
        fired = 0
        self._halted = False
        while not self._halted:
            chosen = self._next_activation()
            if chosen is None:
                break
            _rank, rule, bindings, key = chosen
            self._fired.add(key)
            self._last_fired_versions.setdefault(rule.name, {})[key[1]] = key[2]
            if self.trace_enabled:
                bound = {
                    k: (v.describe() if isinstance(v, Fact) else f"[{len(v)} facts]")
                    for k, v in bindings.items()
                    if isinstance(v, (Fact, list))
                }
                self.trace.append(f"FIRE {rule.name} {bound}")
            listener = self.firing_listener
            seq0 = self.memory.clock if listener is not None else 0
            profiler = self.profiler
            if profiler is not None:
                profiler.sample_agenda(self._agenda_sample_size())
                t0 = profiler.clock()
                rule.then(ActivationContext(self, rule, bindings))
                profiler.record_fire(rule.name, profiler.clock() - t0)
            else:
                rule.then(ActivationContext(self, rule, bindings))
            if listener is not None:
                listener(rule, bindings, self.memory.changes_since(seq0) or [])
            fired += 1
            if fired > self.max_firings:
                raise RuleEngineError(
                    f"fire_all exceeded {self.max_firings} firings; "
                    f"last rule: {rule.name!r} (diverging rule set?)"
                )
        return fired
