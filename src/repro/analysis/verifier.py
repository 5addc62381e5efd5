"""Whole-pack verification: the compiler's plans against the rules (V005).

Where the rule linter checks each rule's shape, the verifier checks every
composition the Policy Service instantiates (:func:`verify_compositions`)
for agreement between the rule compiler and the rules it compiles:

* a rule whose condition shape (all bound Patterns, two or more) earns a
  join plan but was classified delta — or vice versa — is an **error**
  (the classifier and the engine disagree about the rule's semantics);
* a condition fact type whose mutations do not dispatch back to the
  rule's plan is an **error**: the join network would never re-evaluate
  the rule.

Both are exact consequences of the compiled plans, and the mutation
scorecard (``docs/analysis.md``) shows no dynamic oracle catching them:
a misclassified plan serves the same advice at a different cost.

Suppression policy: a suppression lives in :data:`VERIFY_SUPPRESSIONS`
**with an inline justification comment**, or it does not live at all.
Dead suppressions (consuming zero findings across a full run) are
surfaced as S001 warnings by the CLI, so stale justifications rot
loudly.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.findings import Report, Severity, location_of
from repro.rules.compiler import PLAN_JOIN, compile_rules
from repro.rules.engine import Rule
from repro.rules.patterns import Pattern

__all__ = ["VERIFY_SUPPRESSIONS", "verify_pack", "verify_compositions"]


#: Justified suppressions applied to every verifier report.  Policy:
#: each entry carries the *why* right here; anything without a reason is
#: reverted in review, and entries that stop matching show up as S001
#: dead-suppression warnings in `repro lint --verify`.
VERIFY_SUPPRESSIONS: list[str] = []


def check_compiler_agreement(rules: Sequence[Rule], report: Report) -> None:
    """V005 over every compiled plan of ``rules``."""
    ruleset = compile_rules(rules)
    for plan in ruleset.plans:
        rule = plan.rule
        bound = sum(1 for e in rule.when if isinstance(e, Pattern) and e.binding)
        joinable = len(rule.when) >= 2 and bound == len(rule.when)
        if joinable != (plan.kind == PLAN_JOIN):
            report.add(
                "V005",
                Severity.ERROR,
                rule.name,
                f"compiler classified this rule as {plan.kind!r} "
                f"(reason: {plan.reason or 'n/a'}) but its condition shape "
                f"({len(rule.when)} condition elements, {bound} bound patterns) "
                f"says it {'is' if joinable else 'is not'} join-eligible — the "
                f"classifier and the rule disagree",
                location=location_of(rule.then),
                plan=plan.kind,
                reason=plan.reason,
            )

        # the join network re-evaluates a rule only when a mutation
        # touches a fact type the plan dispatches on: every condition's
        # fact type must dispatch back.
        for index, element in enumerate(rule.when):
            dispatched = ruleset.dispatch(element.fact_type)
            if not any(p.rule.name == rule.name for p, _info in dispatched):
                report.add(
                    "V005",
                    Severity.ERROR,
                    rule.name,
                    f"mutations of {element.fact_type.__name__} (condition "
                    f"{index}) do not dispatch to this rule's plan: "
                    f"the join network would never re-evaluate it",
                    location=location_of(rule.then),
                    fact_type=element.fact_type.__name__,
                )


def verify_pack(name: str, rules: Sequence[Rule], suppress: Sequence[str] = ()) -> Report:
    """Verify one composed rule pack; ``suppress`` adds specs to
    :data:`VERIFY_SUPPRESSIONS` (the CLI's ``--suppress``)."""
    report = Report(f"verify:{name}")
    check_compiler_agreement(rules, report)
    report.suppress([*VERIFY_SUPPRESSIONS, *suppress])
    return report


def verify_compositions() -> dict[str, tuple[list, dict]]:
    """name -> (rules, session globals): every shipped configuration the
    linter knows, plus a lease-enabled greedy variant; what each loads is
    what :func:`~repro.policy.service.rule_packs` says ``PolicyService``
    does."""
    from repro.analysis.rulelint import shipped_configs
    from repro.policy.model import PolicyConfig
    from repro.policy.service import rule_packs

    configs = shipped_configs()
    configs["greedy_leases"] = PolicyConfig(policy="greedy", lease_seconds=60.0)
    configs["catalog"] = configs.pop("catalog")  # stays last, as its reports always were
    return {
        name: (
            [rule for pack in rule_packs(config) for rule in pack()],
            {"config": config, "group_counter": 1},
        )
        for name, config in configs.items()
    }
