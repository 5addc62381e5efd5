"""Rule-set linter: static checks over built rule sets.

Checks (stable ids; see ``docs/analysis.md``):

========  ========  ==========================================================
R008      warning   salience is not a named tier from
                    :mod:`repro.policy.salience` (magic number), or —
                    error — the tier ordering invariants are broken.
R009      warning   compiled-engine fast path — a join-plan rule whose
                    *last* pattern states no equality constraint, so the
                    lazy probe walks the whole prefix frontier instead of
                    one bucket;
                    info — a multi-pattern rule that falls back to the
                    ``delta`` plan (reported with the compiler's reason)
                    or whose first condition is not a Pattern (no alpha
                    memory: visited on every mutation of its types);
                    warning — a position-0 guard reading ``_globals``
                    (alpha membership goes stale without a fact change).
R010      error     duplicate rule name across the loaded packs — names key
                    profiling rows, suppressions, and the compiler's plan
                    report, so a collision silently merges two rules'
                    diagnostics (and usually means a pack was loaded twice).
========  ========  ==========================================================

R008 and R009 each catch a defect the mutation scorecard
(``docs/analysis.md``) plants that no dynamic oracle catches: a salience
off the named tiers, a misclassified plan.  R010 guards a pack that could
not run at all.
"""

from __future__ import annotations

import inspect
from typing import Callable, Iterable, Sequence

from repro.analysis.findings import Report, Severity, location_of
from repro.policy import salience
from repro.rules.compiler import PLAN_JOIN, RulePlan, compile_rules
from repro.rules.engine import Rule

__all__ = ["lint_rules", "lint_rule_set", "shipped_configs", "shipped_rule_sets"]


# --------------------------------------------------------------------------
# Shipped rule sets (PolicyService composition, per shipped configuration)
# --------------------------------------------------------------------------
def shipped_configs() -> dict[str, "PolicyConfig"]:
    """name -> the configuration of each shipped rule set; what a set
    holds is what :func:`~repro.policy.service.rule_packs` loads for it."""
    from repro.datacatalog.model import CatalogConfig
    from repro.policy.model import PolicyConfig

    return {
        "fifo": PolicyConfig(policy="fifo"),
        "greedy": PolicyConfig(policy="greedy"),
        "balanced": PolicyConfig(policy="balanced", cluster_count=2),
        "access": PolicyConfig(policy="greedy", access_control=True),
        "priority": PolicyConfig(policy="greedy", order_by="priority"),
        "access_balanced": PolicyConfig(
            policy="balanced", cluster_count=2, access_control=True
        ),
        "catalog": PolicyConfig(
            policy="greedy", catalog=CatalogConfig(default_capacity=1e9)
        ),
    }


def shipped_rule_sets() -> dict[str, tuple[list[Rule], dict]]:
    """name -> (rules, session globals), as ``PolicyService`` composes them."""
    from repro.policy.service import rule_packs

    return {
        name: (
            [rule for pack in rule_packs(config) for rule in pack()],
            {"config": config, "group_counter": 1},
        )
        for name, config in shipped_configs().items()
    }


# --------------------------------------------------------------------------
# R008: salience hygiene
# --------------------------------------------------------------------------
def _check_salience_names(rules: Sequence[Rule], report: Report) -> None:
    try:
        salience.validate_ordering()
    except ValueError as exc:
        report.add(
            "R008",
            Severity.ERROR,
            "salience",
            str(exc),
            location=location_of(salience.validate_ordering),
        )
    named = set(salience.TIERS.values()) | {0}
    for rule in rules:
        if rule.salience not in named:
            report.add(
                "R008",
                Severity.WARNING,
                rule.name,
                f"salience {rule.salience} is not a named tier in "
                f"repro.policy.salience (magic number)",
                location=location_of(rule.then),
                salience=rule.salience,
            )


# --------------------------------------------------------------------------
# R009: compiled-engine fast path
# --------------------------------------------------------------------------
def _code_objects(code) -> Iterable:
    """``code`` and every code object nested in it (lambdas, comprehensions)."""
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _code_objects(const)


def _helper_codes(func: Callable, depth: int = 2) -> list:
    """Code objects of ``func`` and of the module-level functions it calls,
    followed ``depth`` levels, nested code included."""
    found: dict[int, Callable] = {}
    level = [func]
    while level and depth >= 0:
        callees: list[Callable] = []
        for f in level:
            code = getattr(f, "__code__", None)
            if code is not None and id(code) not in found:
                found[id(code)] = f
                scope = getattr(f, "__globals__", {})
                callees += [scope[name] for nested in _code_objects(code)
                            for name in nested.co_names
                            if hasattr(scope.get(name), "__code__")]
        level = callees
        depth -= 1
    return [code for f in found.values() for code in _code_objects(f.__code__)]


def _mentions_globals(func) -> bool:
    """Does ``func``, or a module-level helper it calls, name the
    ``"_globals"`` binding?"""
    return any("_globals" in code.co_consts for code in _helper_codes(func))


def _check_fast_path(plans: Sequence[RulePlan], report: Report) -> None:
    for plan in plans:
        rule = plan.rule
        if plan.alpha is None:
            report.add(
                "R009",
                Severity.INFO,
                rule.name,
                f"first condition is {type(rule.when[0]).__name__}, not a "
                f"Pattern: the rule has no position-0 alpha memory and is "
                f"visited on every mutation of its fact types",
                location=location_of(rule.then),
                plan=plan.kind,
            )
        elif _mentions_globals(rule.when[0].where):
            report.add(
                "R009",
                Severity.WARNING,
                rule.name,
                "position-0 guard reads bindings[\"_globals\"]: its alpha "
                "memory (and the agendas' activations) can go stale when a "
                "global changes without any fact changing",
                location=location_of(rule.then),
                plan=plan.kind,
            )
        if plan.kind == PLAN_JOIN:
            if plan.positions[-1].key_attrs is None:
                report.add(
                    "R009",
                    Severity.WARNING,
                    rule.name,
                    "join-plan rule whose last pattern states no equality "
                    "constraint: the join network's lazy probe walks the whole "
                    "partial-match frontier instead of one bucket on every "
                    "update of the last position's fact type",
                    location=location_of(rule.then),
                    plan=plan.kind,
                )
        elif len(plan.positions) >= 2:
            report.add(
                "R009",
                Severity.INFO,
                rule.name,
                f"multi-pattern rule runs on the delta plan, not the join "
                f"network: {plan.reason}",
                location=location_of(rule.then),
                plan=plan.kind,
                reason=plan.reason,
            )


# --------------------------------------------------------------------------
# R010: duplicate rule names across packs
# --------------------------------------------------------------------------
def _check_duplicate_names(rules: Sequence[Rule], report: Report) -> None:
    first_seen: dict[str, Rule] = {}
    for rule in rules:
        if rule.name in first_seen:
            original = first_seen[rule.name]
            report.add(
                "R010",
                Severity.ERROR,
                rule.name,
                f"rule name {rule.name!r} is defined more than once across "
                f"the loaded packs (first at "
                f"{location_of(original.then)}); names key profiling, "
                f"suppressions, and plan reports, so the duplicates' "
                f"diagnostics merge silently",
                location=location_of(rule.then),
                first_location=location_of(original.then),
            )
        else:
            first_seen[rule.name] = rule


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------
def lint_rules(name: str, rules: Sequence[Rule]) -> Report:
    """Run every rule-set check over ``rules``; returns a :class:`Report`."""
    report = Report(f"rules:{name}")
    _check_duplicate_names(rules, report)
    _check_salience_names(rules, report)
    _check_fast_path(compile_rules(rules).plans, report)
    return report


def lint_rule_set(name: str) -> Report:
    """Lint one shipped rule set by name (see :func:`shipped_rule_sets`)."""
    sets = shipped_rule_sets()
    if name not in sets:
        raise ValueError(
            f"unknown rule set {name!r}; shipped sets: {sorted(sets)}"
        )
    rules, _session_globals = sets[name]
    return lint_rules(name, rules)
