"""The analyzers' own readings hold on real runs of every shipped composition.

The interaction graph prunes edges with two static readings the rule
compiler does not make: a guard's constraint *domains* (the values an
attribute of an accepted candidate can take) and an action's *effects*
(what it inserts, updates and retracts).  A reading that is too narrow
prunes a real edge, so each is checked against what the rules do:

* domains: every guard of every composition runs over randomized fact
  soups, and each fact it accepts must hold each constrained attribute
  inside the element's domain;
* effects: every composition fires over randomized soups while the
  action context records each insert, update and retract; each must lie
  inside the firing rule's effects, or inside its over-approximate
  written types where its effects are opaque.
"""

import random

from repro.analysis.probing import (
    FactFactory,
    harvest_constants,
    probe_universe,
    random_memory,
    rule_io,
    rule_set_functions,
)
from repro.analysis.verifier.composition import verify_compositions
from repro.rules import Session, compile_rules
from repro.rules.engine import ActivationContext

from tests.rules.test_plan_reads import _bindings_for


def _soups(rules, seeds):
    universe = probe_universe(rules)
    pools = harvest_constants(rule_set_functions(rules))
    for seed in seeds:
        rng = random.Random(seed)
        yield rng, random_memory(universe, FactFactory(rng, pools))


def test_accepted_candidates_stay_inside_the_guard_domains():
    evaluations, constrained, accepting = 0, set(), set()
    for name, (rules, session_globals, _builders) in verify_compositions().items():
        summaries = [rule_io(plan) for plan in compile_rules(rules).plans]
        for rng, memory in _soups(rules, range(8)):
            for io in summaries:
                for element, summary in zip(io.rule.when, io.elements):
                    if not summary.domains:
                        continue
                    constrained.add((io.name, summary.index))
                    bindings = _bindings_for(
                        io.rule, summary.index, memory, session_globals, rng
                    )
                    for bs in bindings:
                        for fact in memory.facts_of(element.fact_type):
                            evaluations += 1
                            try:
                                accepted = element.where(fact, bs)
                            except Exception:
                                continue
                            if not accepted:
                                continue
                            accepting.add((io.name, summary.index))
                            for attr, allowed in summary.domains.items():
                                assert getattr(fact, attr) in allowed, (
                                    f"{name}: {io.name!r} condition {summary.index} "
                                    f"accepted {attr}={getattr(fact, attr)!r}, outside "
                                    f"{sorted(map(repr, allowed))}"
                                )
    # Not a vacuous pass: 38 constrained conditions, 4,875 evaluations,
    # and 19 of the conditions accepted at least one fact.
    assert len(constrained) >= 30
    assert evaluations >= 4000
    assert len(accepting) >= 15


def _covers(types, fact):
    return any(isinstance(fact, fact_type) for fact_type in types)


def test_recorded_writes_stay_inside_the_action_effects(monkeypatch):
    writes = []
    for op in ("insert", "update", "retract"):
        method = getattr(ActivationContext, op)

        def recording(self, fact, *args, _op=op, _method=method, **changes):
            writes.append((self.rule.name, _op, fact, frozenset(changes)))
            return _method(self, fact, *args, **changes)

        monkeypatch.setattr(ActivationContext, op, recording)
    fired = set()
    for name, (rules, session_globals, _builders) in verify_compositions().items():
        summaries = {
            plan.rule.name: rule_io(plan) for plan in compile_rules(rules).plans
        }
        for _rng, memory in _soups(rules, range(8)):
            del writes[:]
            session = Session(
                rules, memory=memory, globals=dict(session_globals), max_firings=500
            )
            try:
                session.fire_all()
            except Exception:
                pass  # an action choked on a synthetic value; its writes so far count
            for rule_name, op, fact, attrs in writes:
                io = summaries[rule_name]
                fired.add(rule_name)
                approx = io.approx_written_types if io.effects.opaque else set()
                where = f"{name}: {rule_name!r} {op} {type(fact).__name__}"
                if op == "insert":
                    assert _covers(io.effects.inserts | approx, fact), where
                elif op == "retract":
                    assert _covers(io.effects.retracts | approx, fact), where
                else:
                    written = [
                        io.updated_attrs(fact_type)
                        for fact_type in io.updated_types()
                        if isinstance(fact, fact_type)
                    ]
                    assert written, where
                    assert any(w is None or attrs <= w for w in written), (
                        f"{where} wrote {sorted(attrs)}, outside {written}"
                    )
    # Not a vacuous pass: 24 of the 41 distinct shipped rules fired.
    assert len(fired) >= 20
