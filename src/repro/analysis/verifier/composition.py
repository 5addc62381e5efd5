"""V004/V005 — network-versus-reference parity and compiler-plan agreement.

V004 (dynamic): the same fact soup fired through the join network and
through the full-rescan :class:`~repro.rules.reference.ReferenceSession`
must land in the same canonical final state.  Any split is an **error**
carrying a minimized counterexample that replays both runs — typically a
pack whose ``reads=`` declaration lies, so the network skips a
re-evaluation the rescan performs.

V005 (static-exact): the compiler's join/delta classification and the
``reads=(...)`` change-gating declarations must agree with what the
interaction graph sees in the same rules:

* a rule whose condition shape (all bound Patterns, two or more) earns a
  join plan but was classified delta — or vice versa — is an **error**
  (the classifier and the engine disagree about the rule's semantics);
* a gate's ``reads`` declaration that omits an attribute its guard or
  keys provably read is an **error**: the join network skips
  re-checking a gate when an update's changed attributes are disjoint
  from its declared reads, so the gate's truth goes stale.  These
  findings are exact consequences of the scanned bytecode (the witness
  is the read-set itself), not probe heuristics.

Composition enumeration extends the linter's ``shipped_configs()`` with
a lease-enabled variant so expiry paths get verified too; the packs of
each come from ``repro.policy.service.rule_packs``, the service's own
statement of what it loads.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.analysis.findings import Report, Severity, location_of
from repro.analysis.verifier.interaction import InteractionGraph
from repro.analysis.verifier.replay import (
    counterexample_doc,
    minimize_soup,
    replay_counterexample,
    run_engine_scenario,
)
from repro.rules.engine import Rule
from repro.rules.patterns import Pattern

__all__ = ["check_engine_parity", "check_compiler_agreement", "verify_compositions"]


# --------------------------------------------------------------------------
# V004: join network vs reference session
# --------------------------------------------------------------------------
def check_engine_parity(
    name: str,
    rules: Sequence[Rule],
    rule_builders: Sequence[Callable],
    session_globals: dict,
    soups: Sequence[Sequence[tuple]],
    report: Report,
) -> None:
    for soup in soups:
        states = run_engine_scenario(rules, session_globals, soup)
        if states is None:
            continue  # an action crashed on synthetic facts: inconclusive
        if len({tuple(s) for s in states.values()}) == 1:
            continue

        def still_splits(candidate: Sequence[tuple]) -> bool:
            found = run_engine_scenario(rules, session_globals, candidate)
            return found is not None and len({tuple(s) for s in found.values()}) > 1

        minimal = minimize_soup(soup, still_splits)
        doc = counterexample_doc(
            "engine", rule_builders, session_globals, minimal, pack=name,
        )
        result = replay_counterexample(doc)
        if not result["reproduced"]:
            continue  # no heuristic-only errors
        report.add(
            "V004",
            Severity.ERROR,
            f"pack:{name}",
            f"the join network and the reference session reach different "
            f"final working-memory states for a {len(minimal)}-fact soup — "
            f"the network skips a re-evaluation the full rescan performs "
            f"(a reads= declaration or key that omits what a guard reads?)",
            counterexample=doc,
        )
        return  # one replayed split per composition is enough


# --------------------------------------------------------------------------
# V005: compiler-plan / interaction-graph agreement
# --------------------------------------------------------------------------
def check_compiler_agreement(
    rules: Sequence[Rule], graph: InteractionGraph, report: Report
) -> None:
    from repro.rules.compiler import PLAN_JOIN, compile_rules

    ruleset = compile_rules(rules)
    for plan in ruleset.plans:
        rule = plan.rule
        joinable = (
            len(rule.when) >= 2
            and all(isinstance(e, Pattern) and e.binding for e in rule.when)
        )
        is_join = plan.kind == PLAN_JOIN
        if joinable != is_join:
            report.add(
                "V005",
                Severity.ERROR,
                rule.name,
                f"compiler classified this rule as {plan.kind!r} "
                f"(reason: {plan.reason or 'n/a'}) but its condition shape "
                f"({len(typed)} typed elements, "
                f"{sum(1 for e in typed if isinstance(e, Pattern) and e.binding)}"
                f" bound patterns) says it "
                f"{'is' if joinable else 'is not'} join-eligible — the "
                f"classifier and the interaction graph disagree",
                location=location_of(rule.then),
                plan=plan.kind,
                reason=plan.reason,
            )

        # the join network re-evaluates a rule only when a mutation
        # touches a fact type the plan dispatches on: every type the
        # interaction graph sees in the conditions must dispatch back.
        io = graph.nodes[rule.name]
        for element in io.elements:
            dispatched = ruleset.dispatch(element.fact_type)
            if not any(p.rule.name == rule.name for p, _info in dispatched):
                report.add(
                    "V005",
                    Severity.ERROR,
                    rule.name,
                    f"mutations of {element.fact_type.__name__} (condition "
                    f"{element.index}) do not dispatch to this rule's plan: "
                    f"the join network would never re-evaluate it",
                    location=location_of(rule.then),
                    fact_type=element.fact_type.__name__,
                )

    # reads-declaration soundness: the join network only re-checks a
    # gate (Absent/Collect) whose declared reads intersect an
    # update's changed attrs, so the declaration must cover every
    # attribute the gate's guard/keys actually read.
    for rule in rules:
        io = graph.nodes[rule.name]
        for element_io, element in zip(io.elements, rule.when):
            declared = getattr(element, "reads", None)
            if declared is None or element_io.reads is None:
                continue  # undeclared = no gating; inexact scan = unprovable
            if element_io.kind == "pattern":
                continue  # reads only gates Absent/Collect re-checks
            missing = sorted(set(element_io.reads) - set(declared))
            if missing:
                report.add(
                    "V005",
                    Severity.ERROR,
                    rule.name,
                    f"reads declaration on condition {element_io.index} "
                    f"({element_io.fact_type.__name__}) omits "
                    f"{', '.join(missing)} — the guard/keys read these, so "
                    f"change-gating skips re-evaluation "
                    f"when they change and matches go stale",
                    location=location_of(element.where or rule.then),
                    missing=missing,
                    declared=sorted(declared),
                )


# --------------------------------------------------------------------------
# Composition enumeration
# --------------------------------------------------------------------------
def verify_compositions() -> dict[str, tuple[list, dict, list]]:
    """name -> (rules, session globals, pack builders): every shipped
    configuration the linter knows, plus a lease-enabled greedy variant
    (so lease grant/expiry paths verify); what each loads is what
    :func:`~repro.policy.service.rule_packs` says ``PolicyService`` does."""
    from repro.analysis.rulelint import shipped_configs
    from repro.policy.model import PolicyConfig
    from repro.policy.service import rule_packs

    configs = shipped_configs()
    configs["greedy_leases"] = PolicyConfig(policy="greedy", lease_seconds=60.0)
    configs["catalog"] = configs.pop("catalog")  # stays last, as its reports always were
    compositions = {}
    for name, config in configs.items():
        builders = rule_packs(config)
        rules = [rule for builder in builders for rule in builder()]
        compositions[name] = (rules, {"config": config, "group_counter": 1}, builders)
    return compositions
