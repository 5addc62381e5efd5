"""The rule engine: rules, agenda, activations, sessions.

Semantics (modelled on Drools):

* ``Session.fire_all()`` repeatedly (1) matches all rules against working
  memory producing *activations*, (2) orders them by (salience desc, fact
  arrival order, rule-definition order), (3) fires the first un-fired
  activation, then re-matches.  It stops when no new activation exists.
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

Incremental agenda
------------------
By default (``incremental=True``) a session maintains one *agenda* per
rule — the set of computed, not-yet-fired activations — and after each
firing re-derives only what the firing's mutations can have changed:

* each scan reads the tail of the memory's change log **once** and
  routes every mutation to the agendas of the rules whose referenced
  fact types it touches; a rule nothing was routed to is not visited;
* a dirty fact only matched by :class:`~repro.rules.patterns.Pattern`
  elements triggers a *delta* update: activations referencing the fact are
  dropped and the rule is re-joined with each Pattern position restricted
  to the dirty facts (index-accelerated through the patterns' ``keys``);
* a dirty fact of a type referenced by ``Absent`` / ``Exists`` /
  ``Collect`` forces a full re-match of that rule, because negations and
  aggregates can flip activations that do not reference the fact at all.

``incremental=False`` preserves the seed engine's re-enumerate-everything
behaviour for benchmarking and equivalence tests; both modes fire the
same activations in the same order.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from repro.rules.facts import Fact, WorkingMemory
from repro.rules.patterns import Absent, ConditionElement, Pattern

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
        for element in when:
            if not isinstance(element, ConditionElement):
                raise TypeError(
                    f"rule {name!r}: condition {element!r} is not a ConditionElement"
                )
        self.name = name
        self.when = when
        self.then = then
        self.salience = int(salience)
        self.no_loop = bool(no_loop)
        #: fact types this rule's conditions reference (for match caching)
        self.types: tuple[type, ...] = tuple(
            {element.fact_type for element in when if hasattr(element, "fact_type")}
        )
        #: types referenced by non-Pattern elements (Absent/Exists/Collect):
        #: changes to these cannot be handled by a positional delta join.
        self.gate_types: tuple[type, ...] = tuple(
            {
                element.fact_type
                for element in when
                if hasattr(element, "fact_type") and not isinstance(element, Pattern)
            }
        )
        #: Absent-only gate types: an *insert* of one of these can only
        #: invalidate existing activations (negation is anti-monotone), so
        #: the agenda may keep its entries and re-verify them lazily.
        self.absent_types: tuple[type, ...] = tuple(
            {element.fact_type for element in when if isinstance(element, Absent)}
        )
        #: gates where any change forces a rebuild (Exists can enable new
        #: activations on insert; Collect rebinds on every change).
        self.hard_gate_types: tuple[type, ...] = tuple(
            {
                element.fact_type
                for element in when
                if hasattr(element, "fact_type")
                and not isinstance(element, (Pattern, Absent))
            }
        )

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
        index to the given candidate facts — the delta-join primitive of
        the incremental agenda.
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

    def __repr__(self) -> str:  # pragma: no cover
        return f"Rule({self.name!r}, salience={self.salience})"


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
        return self._session.update(fact, _modifier=self.rule.name, **changes)

    def retract(self, fact: Fact) -> None:
        self._session.retract(fact)

    def halt(self) -> None:
        """Stop ``fire_all`` after this action returns."""
        self._session._halted = True


def _activation_key(memory: WorkingMemory, rule: Rule, bindings: dict):
    """Stable identity of an activation: rule + sorted matched fact ids."""
    fids = []
    versions = []
    for value in bindings.values():
        facts: Iterable[Fact]
        if isinstance(value, Fact):
            facts = (value,)
        elif isinstance(value, list):  # Collect binding
            facts = tuple(f for f in value if isinstance(f, Fact))
        else:
            continue
        for fact in facts:
            if memory.contains(fact):
                fids.append(memory.fid_of(fact))
                versions.append(memory.version_of(fact))
    order = sorted(range(len(fids)), key=lambda i: fids[i])
    return (
        rule.name,
        tuple(fids[i] for i in order),
        tuple(versions[i] for i in order),
    )


class _Agenda:
    """Computed activations of one rule, kept in sync with the memory."""

    __slots__ = ("pending", "entries", "by_fid", "verify_gates")

    def __init__(self) -> None:
        #: ``(fid, fact, op)`` mutations of the rule's fact types not yet
        #: applied, oldest first; ``None`` = rebuild from scratch (a new
        #: agenda, or the bounded change log was overrun)
        self.pending: Optional[list[tuple[int, Fact, str]]] = None
        #: activation key -> bindings (insertion order = discovery order)
        self.entries: dict[tuple, dict] = {}
        #: fid -> set of activation keys referencing that fact
        self.by_fid: dict[int, set] = {}
        #: an Absent-gated fact was inserted since the last rebuild:
        #: entries must re-check their Absent gates before firing
        self.verify_gates = False

    def add(self, key: tuple, bindings: dict) -> None:
        if key in self.entries:
            return
        self.entries[key] = bindings
        for fid in key[1]:
            self.by_fid.setdefault(fid, set()).add(key)

    def drop_fact(self, fid: int) -> None:
        for key in self.by_fid.pop(fid, ()):
            if self.entries.pop(key, None) is not None:
                for other in key[1]:
                    if other != fid:
                        refs = self.by_fid.get(other)
                        if refs is not None:
                            refs.discard(key)

    def drop_key(self, key: tuple) -> None:
        if self.entries.pop(key, None) is not None:
            for fid in key[1]:
                refs = self.by_fid.get(fid)
                if refs is not None:
                    refs.discard(key)


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
    incremental:
        Maintain per-rule agendas updated from the memory change log
        (default).  ``False`` re-enumerates every match on every firing —
        the seed engine's behaviour, kept for benchmarks and equivalence
        tests.
    profiler:
        Optional :class:`repro.obs.profiler.RuleProfiler`.  When attached
        the session tallies per-rule match/action wall time, activation
        and fire counts, and samples the agenda size at each firing.
        ``None`` (the default) adds no timing calls to the hot path.
    tie_break:
        Optional ``(rule, order, key) -> rank`` hook replacing the default
        within-tier activation rank ``(fact-id tuple, definition order)``.
        The returned ranks must be mutually comparable; lower fires first.
        Used by the confluence verifier to permute agenda tie-breaks
        deterministically — production sessions leave it ``None``.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        memory: Optional[WorkingMemory] = None,
        globals: Optional[dict] = None,
        max_firings: int = 100_000,
        incremental: bool = True,
        profiler: Optional[Any] = None,
        tie_break: Optional[Callable[[Rule, int, tuple], Any]] = None,
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
        self.incremental = bool(incremental)
        self._fired: set = set()
        # rule name -> {fact-id tuple: versions at last firing}
        self._last_fired_versions: dict[str, dict[tuple, tuple]] = {}
        # rules grouped by salience (descending), definition order kept
        tiers: dict[int, list[tuple[int, Rule]]] = {}
        for order, rule in enumerate(self.rules):
            tiers.setdefault(rule.salience, []).append((order, rule))
        self._tiers = [tiers[s] for s in sorted(tiers, reverse=True)]
        self._match_cache: dict[str, tuple[int, list[dict]]] = {}
        self._agendas: dict[str, _Agenda] = (
            {rule.name: _Agenda() for rule in self.rules} if self.incremental else {}
        )
        # concrete fact type -> agendas of the rules referencing it
        self._agendas_of: dict[type, list[_Agenda]] = {}
        # memory clock up to which mutations were routed to the agendas
        self._routed = -1
        self._halted = False
        self._tie_break = tie_break
        self.trace: list[str] = []
        self.trace_enabled = False
        #: optional ``(rule, bindings, ops)`` callback invoked after every
        #: firing with the change-log slice the action produced — the
        #: decision-provenance hook.  Lives here (not in subclasses) so
        #: all engines report identically.
        self.firing_listener: Optional[Callable[[Rule, dict, list], None]] = None
        self.profiler = profiler
        if profiler is not None:
            profiler.register(rule.name for rule in self.rules)

    def reset(self) -> None:
        """Forget everything one evaluation leaves behind, keep the agendas.

        A long-lived caller (the Policy Service keeps one session for its
        whole life) calls this before each request.  Refraction memory,
        ``no_loop`` history, the halt flag, the firing listener and the
        trace start empty, exactly as in a new session; the agendas stay
        and catch up from the memory's change log, which is sound because
        an agenda is a pure function of the memory.
        """
        self._fired = set()
        self._last_fired_versions = {}
        self._halted = False
        self.firing_listener = None
        self.trace = []

    # -- memory passthrough --------------------------------------------------
    def insert(self, fact: Fact, _modifier: Optional[str] = None) -> Fact:
        return self.memory.insert(fact, modifier=_modifier)

    def update(self, fact: Fact, _modifier: Optional[str] = None, **changes: Any) -> Fact:
        return self.memory.update(fact, modifier=_modifier, **changes)

    def retract(self, fact: Fact) -> None:
        self.memory.retract(fact)

    def insert_all(self, facts: Iterable[Fact]) -> None:
        for fact in facts:
            self.insert(fact)

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

    # -- seed (full re-enumeration) matching ----------------------------------
    def _rule_matches(self, rule: Rule, seed: dict) -> list[dict]:
        """Match with type-stamp caching: a rule only re-matches after a
        fact of one of its referenced types changed."""
        stamp = self.memory.stamp(rule.types)
        cached = self._match_cache.get(rule.name)
        if cached is not None and cached[0] == stamp:
            return cached[1]
        profiler = self.profiler
        if profiler is not None:
            t0 = profiler.clock()
            matches = rule.matches(self.memory, seed)
            profiler.record_match(rule.name, len(matches), profiler.clock() - t0)
        else:
            matches = rule.matches(self.memory, seed)
        self._match_cache[rule.name] = (stamp, matches)
        return matches

    def _next_activation_full(self, seed: dict):
        # Rules grouped by salience tier, highest first; lower tiers are
        # only evaluated when every higher tier is quiescent.
        tie_break = self._tie_break
        for tier in self._tiers:
            best = None
            for order, rule in tier:
                for bindings in self._rule_matches(rule, seed):
                    key = _activation_key(self.memory, rule, bindings)
                    if key in self._fired:
                        continue
                    if self._suppressed_by_no_loop(rule, key):
                        continue
                    # Within a salience tier the oldest matched fact set
                    # fires first (FIFO); definition order breaks ties.
                    if tie_break is None:
                        rank = (key[1], order)
                    else:
                        rank = tie_break(rule, order, key)
                    if best is None or rank < best[0]:
                        best = (rank, rule, bindings, key)
            if best is not None:
                return best
        return None

    # -- incremental agenda ----------------------------------------------------
    def _rebuild_agenda(self, agenda: _Agenda, rule: Rule, seed: dict) -> None:
        agenda.entries.clear()
        agenda.by_fid.clear()
        agenda.verify_gates = False
        for bindings in rule.matches(self.memory, seed):
            agenda.add(_activation_key(self.memory, rule, bindings), bindings)

    def _delta_agenda(
        self, agenda: _Agenda, rule: Rule, seed: dict, dirty: list[tuple[int, Fact]]
    ) -> None:
        # 1. Any activation referencing a dirty fact is stale: its version
        #    changed (update), it is gone (retract), or its guards may now
        #    disagree.  Drop them all; step 2 re-derives the survivors.
        for fid, _fact in dirty:
            agenda.drop_fact(fid)
        # 2. Every new activation must bind at least one dirty fact at some
        #    Pattern position (gate elements force a full rebuild instead),
        #    so re-join with each position restricted to the dirty facts.
        live: list[Fact] = []
        seen_ids = set()
        for _fid, fact in dirty:
            if id(fact) not in seen_ids and self.memory.contains(fact):
                seen_ids.add(id(fact))
                live.append(fact)
        if not live:
            return
        for position, element in enumerate(rule.when):
            if not isinstance(element, Pattern):
                continue
            candidates = [f for f in live if isinstance(f, element.fact_type)]
            if not candidates:
                continue
            for bindings in rule.matches(self.memory, seed, restrict=(position, candidates)):
                agenda.add(_activation_key(self.memory, rule, bindings), bindings)

    def _route_changes(self) -> None:
        """Hand the mutations since the last scan to the agendas they touch.

        One walk of the change-log tail per scan, whatever the number of
        rules; an agenda nothing was routed to stays clean and its rule
        is skipped.  When the session fell behind the bounded log every
        agenda is marked for a rebuild instead.
        """
        memory = self.memory
        if self._routed == memory.clock:
            return
        changes = memory.changes_since(self._routed) if self._routed >= 0 else None
        self._routed = memory.clock
        if changes is None:
            for agenda in self._agendas.values():
                agenda.pending = None
            return
        agendas_of = self._agendas_of
        for change in changes:
            fact_type = type(change[1])
            agendas = agendas_of.get(fact_type)
            if agendas is None:
                agendas = agendas_of[fact_type] = [
                    self._agendas[rule.name]
                    for rule in self.rules
                    if issubclass(fact_type, rule.types)
                ]
            for agenda in agendas:
                if agenda.pending is not None:
                    agenda.pending.append(change)

    def _sync_agenda(self, agenda: _Agenda, rule: Rule, seed: dict) -> None:
        """Apply the agenda's pending mutations (delta when provably
        enough, rebuild otherwise)."""
        pending, agenda.pending = agenda.pending, []
        dirty: Optional[list[tuple[int, Fact]]] = None
        verify = False
        if pending is not None:
            rebuild = False
            for _fid, fact, op in pending:
                if rule.hard_gate_types and isinstance(fact, rule.hard_gate_types):
                    # Exists can be newly satisfied by an insert and
                    # Collect rebinds on any change: no delta possible.
                    rebuild = True
                    break
                if rule.absent_types and isinstance(fact, rule.absent_types):
                    if op == "i" and self.memory.contains(fact):
                        # A new blocker can only invalidate existing
                        # activations — keep them, re-verify at fire
                        # time instead of rebuilding.
                        verify = True
                    else:
                        # An update may flip the Absent guard either
                        # way; a retract can enable activations that
                        # bind no dirty fact.  Only a rebuild finds
                        # those.
                        rebuild = True
                        break
            if not rebuild:
                dirty = [(fid, fact) for fid, fact, _op in pending]
        profiler = self.profiler
        before = len(agenda.entries)
        t0 = profiler.clock() if profiler is not None else 0.0
        if dirty is None:
            self._rebuild_agenda(agenda, rule, seed)
        else:
            self._delta_agenda(agenda, rule, seed, dirty)
            if verify:
                agenda.verify_gates = True
        if profiler is not None:
            profiler.record_match(
                rule.name,
                max(len(agenda.entries) - before, 0),
                profiler.clock() - t0,
            )

    def _gates_still_pass(self, rule: Rule, bindings: dict) -> bool:
        """Re-check a stored activation's Absent gates against the memory."""
        for element in rule.when:
            if isinstance(element, Absent) and not element.expand(self.memory, bindings):
                return False
        return True

    def _next_activation_incremental(self, seed: dict):
        tie_break = self._tie_break
        self._route_changes()
        agendas = self._agendas
        for tier in self._tiers:
            best = None
            for order, rule in tier:
                agenda = agendas[rule.name]
                if agenda.pending is None or agenda.pending:
                    self._sync_agenda(agenda, rule, seed)
                if not agenda.entries:
                    continue
                fired = self._fired
                stale: list[tuple] = []
                for key, bindings in agenda.entries.items():
                    if key in fired:
                        continue
                    if tie_break is None:
                        rank = (key[1], order)
                    else:
                        rank = tie_break(rule, order, key)
                    if best is not None and rank >= best[0]:
                        continue
                    if self._suppressed_by_no_loop(rule, key):
                        continue
                    if agenda.verify_gates and not self._gates_still_pass(
                        rule, bindings
                    ):
                        stale.append(key)
                        continue
                    best = (rank, rule, bindings, key)
                for key in stale:
                    agenda.drop_key(key)
            if best is not None:
                return best
        return None

    def _next_activation(self):
        seed = {"_globals": self.globals}
        if self.incremental:
            return self._next_activation_incremental(seed)
        return self._next_activation_full(seed)

    def _agenda_sample_size(self) -> int:
        """Computed-but-unfired activation count for profiler sampling.
        Subclasses with their own agenda representation override this."""
        if self.incremental:
            return sum(len(a.entries) for a in self._agendas.values())
        return sum(len(c[1]) for c in self._match_cache.values())

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
                listener(rule, bindings, self.memory.changes_since_verbose(seq0) or [])
            fired += 1
            if fired > self.max_firings:
                raise RuleEngineError(
                    f"fire_all exceeded {self.max_firings} firings; "
                    f"last rule: {rule.name!r} (diverging rule set?)"
                )
        return fired
