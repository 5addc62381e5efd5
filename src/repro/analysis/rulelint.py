"""Rule-set linter: static + probing checks over built rule sets.

Checks (stable ids; see ``docs/analysis.md``):

========  ========  ==========================================================
R001      error     ``keys`` hint not implied by the guard — a keyed
                    :meth:`~repro.rules.facts.WorkingMemory.lookup` missed a
                    fact the guard accepts, so matches are silently lost.
R002      error     guard or key references an attribute that does not
                    exist on the bound ``Fact`` class.
R003      warning   ambiguous salience tie — two equal-salience rules
                    activated on the same fact tuple; only definition order
                    decides which fires first.
R004      warning   shadowing — every probed activation of a lower-salience
                    rule is claimed by a higher-salience rule that consumes
                    (updates/retracts) the shared facts.
R005      error     divergence — the rule re-fires without bound when run
                    alone on a random memory (``update`` of a matched type
                    without ``no_loop`` or a guard flip).
R006      warning   unreachable — a positive condition type is never
                    inserted by any rule action or service entry point.
R007      info      rule→fact read/write dependency cycle (feedback loop
                    across rules; usually intentional, always worth knowing).
R008      warning   salience is not a named tier from
                    :mod:`repro.policy.salience` (magic number), or —
                    error — the tier ordering invariants are broken.
R009      warning   compiled-engine fast path — a join-plan rule whose
                    *last* pattern declares no ``keys``, so the lazy probe
                    walks the whole prefix frontier instead of one bucket;
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

Dynamic checks (R001/R003/R004/R005) probe the rule set against randomized
working memories built from the declared fact schemas, with value pools
harvested from the guards' own constants (:mod:`repro.analysis.probing`).
The probing is seeded and deterministic per (seed, trials) so CI runs are
reproducible.
"""

from __future__ import annotations

import builtins
import itertools
import random
from typing import Callable, Iterable, Optional, Sequence, Type

from repro.analysis.findings import Report, Severity, location_of
from repro.analysis.probing import (
    FactFactory,
    RuleIO,
    callable_names,
    clone_memory,
    fact_schema,
    harvest_constants,
    helper_codes,
    helper_functions,
    probe_universe,
    random_memory,
    rule_io,
    rule_set_functions,
    snapshot_memory,
)
from repro.policy import salience
from repro.rules.compiler import PLAN_JOIN, RulePlan, _element_reads, compile_rules
from repro.rules.engine import Rule, RuleEngineError, Session
from repro.rules.facts import Fact, WorkingMemory
from repro.rules.patterns import Absent, Collect, ConditionElement, Pattern
from repro.workflow.graph import reachable

__all__ = [
    "lint_rules", "lint_rule_set", "shipped_configs", "shipped_rule_sets", "SERVICE_ENTRY_TYPES",
]


def _guard_accepts(guard, fact, bindings) -> bool:
    """Engine guard semantics, hardened for synthetic facts: AttributeError
    means "no match" (as in ``patterns._check``); any other exception from a
    randomized value also counts as no match rather than a linter crash."""
    if guard is None:
        return True
    try:
        return bool(guard(fact, bindings))
    except Exception:
        return False


# --------------------------------------------------------------------------
# Shipped rule sets (PolicyService composition, per shipped configuration)
# --------------------------------------------------------------------------
#: fact types the service inserts directly from its entry points
#: (submit_transfers, submit_cleanups, reap_expired, reconcile_staged,
#: deny_host, set_quota, register_tenant, register_priorities, and the
#: data catalog's replica and site-capacity registrations)
def _service_entry_types() -> tuple[Type[Fact], ...]:
    from repro.datacatalog.model import (
        EvictionSweepFact,
        ReplicaRecordFact,
        SiteCapacityFact,
    )
    from repro.policy.model import (
        CleanupFact,
        LeaseSweepFact,
        StagedFileFact,
        TransferFact,
    )
    from repro.policy.rules_access import HostDenialFact, WorkflowQuotaFact
    from repro.policy.rules_fairshare import TenantFact, TenantWorkflowFact
    from repro.policy.rules_priority import JobPriorityFact

    return (
        TransferFact,
        CleanupFact,
        LeaseSweepFact,
        StagedFileFact,
        HostDenialFact,
        WorkflowQuotaFact,
        JobPriorityFact,
        TenantFact,
        TenantWorkflowFact,
        ReplicaRecordFact,
        SiteCapacityFact,
        EvictionSweepFact,
    )


SERVICE_ENTRY_TYPES: Callable[[], tuple[Type[Fact], ...]] = _service_entry_types


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
# Static structure helpers
# --------------------------------------------------------------------------
def _activation_fids(memory: WorkingMemory, bindings: dict) -> tuple[int, ...]:
    fids = []
    for value in bindings.values():
        if isinstance(value, Fact) and memory.contains(value):
            fids.append(memory.fid_of(value))
        elif isinstance(value, list):
            fids.extend(
                memory.fid_of(f)
                for f in value
                if isinstance(f, Fact) and memory.contains(f)
            )
    return tuple(sorted(fids))


# --------------------------------------------------------------------------
# R002: unknown attribute references
# --------------------------------------------------------------------------
def _known_attrs(fact_type: Type[Fact], factory: FactFactory, cache: dict) -> set[str]:
    attrs = cache.get(fact_type)
    if attrs is None:
        attrs = fact_schema(fact_type, factory)
        attrs |= {n for n in dir(fact_type) if not n.startswith("_")}
        cache[fact_type] = attrs
    return attrs


def _scope_names(funcs: Iterable[Callable]) -> set[str]:
    """Every builtin, and every module global of ``funcs`` and of the
    module-level functions they reach."""
    reached = [f for func in funcs for f in helper_functions(func, depth=None)]
    return set(dir(builtins)).union(*(getattr(f, "__globals__", ()) for f in reached))


def _check_attribute_refs(io: RuleIO, factory: FactFactory, report: Report) -> None:
    """R002 over the compiler's per-element read scan: a name the guard
    or key functions read that is no attribute of a fact class the rule
    matches and does not resolve in :func:`_scope_names`.  An element
    whose reads the scan cannot bound goes unchecked."""
    cache: dict = {}
    rule = io.rule
    known = set().union(*(_known_attrs(t, factory, cache) for t in io.condition_types))
    for position, (element, names) in enumerate(zip(rule.when, _element_reads(rule))):
        keys = element.keys or {}
        funcs = [fn for fn in (element.where, *keys.values()) if fn is not None]
        # key attributes are in the scan too: the hint check covers them
        for attr in sorted((names or set()) - known - keys.keys() - _scope_names(funcs)):
            report.add(
                "R002",
                Severity.ERROR,
                rule.name,
                f"guard (condition {position}) references "
                f"{element.fact_type.__name__}.{attr}, which does not exist "
                f"on the fact class",
                location=location_of(funcs[0]),
                attribute=attr,
                fact_type=element.fact_type.__name__,
            )
        for attr, fn in keys.items():
            if attr not in _known_attrs(element.fact_type, factory, cache):
                report.add(
                    "R002",
                    Severity.ERROR,
                    rule.name,
                    f"keys hint names {element.fact_type.__name__}.{attr}, "
                    f"which does not exist on the fact class",
                    location=location_of(fn),
                    attribute=attr,
                    fact_type=element.fact_type.__name__,
                )


# --------------------------------------------------------------------------
# R001: keys-vs-guard soundness
# --------------------------------------------------------------------------
def _check_keys_soundness(
    rule: Rule,
    position: int,
    element: ConditionElement,
    memory: WorkingMemory,
    bindings: dict,
    report: Report,
    reported: set,
) -> None:
    marker = (rule.name, position)
    if marker in reported or not element.keys:
        return
    try:
        values = {attr: fn(bindings) for attr, fn in element.keys.items()}
    except AttributeError:
        return  # engine falls back to a full scan: sound by construction
    except Exception as exc:
        reported.add(marker)
        report.add(
            "R001",
            Severity.ERROR,
            rule.name,
            f"keys hint on condition {position} "
            f"({element.fact_type.__name__}) raised {exc!r}; the engine only "
            f"tolerates AttributeError",
            location=location_of(next(iter(element.keys.values()))),
            position=position,
        )
        return
    keyed_ids = {id(f) for f in memory.lookup(element.fact_type, **values)}
    for fact in memory.facts_of(element.fact_type):
        if id(fact) in keyed_ids:
            continue
        if _guard_accepts(element.where, fact, bindings):
            reported.add(marker)
            report.add(
                "R001",
                Severity.ERROR,
                rule.name,
                f"keys hint on condition {position} "
                f"({element.fact_type.__name__}) is not implied by the guard: "
                f"keyed lookup {values!r} misses a guard-accepted fact "
                f"({fact.describe()}) — matches would be silently lost",
                location=location_of(next(iter(element.keys.values()))),
                position=position,
                key_values={k: repr(v) for k, v in values.items()},
            )
            return


def _probe_rule(
    rule: Rule,
    memory: WorkingMemory,
    seed_bindings: dict,
    report: Report,
    reported: set,
) -> None:
    """Guard-only walk of the LHS, probing every keyed element's soundness
    against every reachable binding environment."""
    frontier: list[dict] = [dict(seed_bindings)]
    for position, element in enumerate(rule.when):
        if element.keys:
            for bindings in frontier:
                _check_keys_soundness(
                    rule, position, element, memory, bindings, report, reported
                )
        next_frontier: list[dict] = []
        for bindings in frontier:
            accepted = [
                f
                for f in memory.facts_of(element.fact_type)
                if _guard_accepts(element.where, f, bindings)
            ]
            if isinstance(element, Pattern):
                for fact in accepted:
                    new = dict(bindings)
                    if element.binding:
                        new[element.binding] = fact
                    next_frontier.append(new)
            elif isinstance(element, Absent):
                if not accepted:
                    next_frontier.append(dict(bindings))
            elif isinstance(element, Collect):
                if len(accepted) >= element.min_count:
                    new = dict(bindings)
                    new[element.binding] = accepted
                    next_frontier.append(new)
        frontier = next_frontier
        if not frontier:
            return


# --------------------------------------------------------------------------
# R005: divergence probe
# --------------------------------------------------------------------------
def _probe_divergence(
    rule: Rule,
    soup: Sequence[tuple],
    session_globals: dict,
    report: Report,
) -> None:
    """Run the rule alone over a clone of a cached probe soup.  The clone
    keeps the single-rule session's mutations away from the shared
    snapshots, at a fraction of the cost of re-synthesizing facts."""
    memory = clone_memory(soup)
    probe_globals = dict(session_globals)
    session = Session([rule], memory=memory, globals=probe_globals, max_firings=500)
    try:
        session.fire_all()
    except RuleEngineError:
        report.add(
            "R005",
            Severity.ERROR,
            rule.name,
            "rule re-fires without bound when run alone on a random memory "
            "(updates a matched fact type without no_loop, or a guard that "
            "its own action never falsifies)",
            location=location_of(rule.then),
        )
    except Exception:
        # The action choked on synthetic fact values — inconclusive, and the
        # engine would surface a genuine action bug at runtime anyway.
        pass


# --------------------------------------------------------------------------
# R006 / R007: reachability and dependency cycles
# --------------------------------------------------------------------------
def _check_reachability(
    summaries: Sequence[RuleIO], entry_types: Iterable[Type[Fact]], report: Report
) -> None:
    insertable: set[Type[Fact]] = set(entry_types)
    for io in summaries:
        insertable |= io.approx_written_types
    for io in summaries:
        missing = [
            t.__name__ for t in sorted(io.positive_types, key=lambda t: t.__name__)
            if not any(issubclass(i, t) for i in insertable)
        ]
        if missing:
            report.add(
                "R006",
                Severity.WARNING,
                io.name,
                f"unreachable: no rule action or service entry point ever "
                f"inserts {', '.join(missing)}, so this rule can never "
                f"activate",
                location=location_of(io.rule.then),
                missing_types=missing,
            )


def _check_dependency_cycles(summaries: Sequence[RuleIO], report: Report) -> None:
    reads = {io.name: io.condition_types for io in summaries}
    writes = {io.name: io.approx_written_types for io in summaries}
    graph: dict[str, list[str]] = {name: [] for name in reads}
    for a, b in itertools.permutations(summaries, 2):
        if writes[a.name] & reads[b.name]:
            graph[a.name].append(b.name)
    # Strongly connected components: each rule and those mutually reachable with it.
    reach = {name: reachable(graph, name) for name in graph}
    components = {frozenset([n, *(m for m in reach[n] if n in reach[m])]) for n in graph}
    for members in sorted(sorted(c) for c in components if len(c) > 1):
        shared = set()
        for name in members:
            shared |= writes[name] & set().union(*(reads[m] for m in members))
        preview = " -> ".join(members[:3])
        if len(members) > 3:
            preview += f" -> ... ({len(members) - 3} more)"
        report.add(
            "R007",
            Severity.INFO,
            members[0],
            f"{len(members)} rules form a read/write dependency cycle "
            f"through fact type(s) "
            f"{', '.join(sorted(t.__name__ for t in shared))}: {preview}",
            rules=members,
        )


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
def _mentions_globals(func) -> bool:
    """Does ``func``, or a module-level helper it calls, name the
    ``"_globals"`` binding?"""
    return any("_globals" in code.co_consts for code in helper_codes(func))


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
                    "join-plan rule whose last pattern declares no `keys`: "
                    "the join network's lazy probe walks the whole "
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
# R003 / R004: ties and shadowing
# --------------------------------------------------------------------------
class _ActivationLog:
    """Per-rule activation fid tuples accumulated across probe trials."""

    def __init__(self, rules: Sequence[Rule]):
        self.tuples: dict[str, set[tuple]] = {r.name: set() for r in rules}

    def record(
        self, trial: int, rules: Sequence[Rule], memory: WorkingMemory, seed: dict
    ) -> None:
        # Fact ids restart for every probe memory, so tuples are tagged
        # with the trial index — overlap must happen within one memory.
        for rule in rules:
            try:
                matches = rule.matches(memory, dict(seed))
            except Exception:
                continue
            for bindings in matches:
                fids = _activation_fids(memory, bindings)
                if fids:
                    self.tuples[rule.name].add((trial, fids))


def _check_ties_and_shadowing(
    summaries: Sequence[RuleIO], log: _ActivationLog, report: Report
) -> None:
    by_signature: dict[tuple, list[Rule]] = {}
    for io in summaries:
        signature = tuple(sorted(t.__name__ for t in io.condition_types))
        by_signature.setdefault(signature, []).append(io.rule)

    for group in by_signature.values():
        for a, b in itertools.combinations(group, 2):
            shared = log.tuples[a.name] & log.tuples[b.name]
            if a.salience == b.salience:
                if shared:
                    report.add(
                        "R003",
                        Severity.WARNING,
                        a.name,
                        f"ambiguous salience tie with {b.name!r} (both "
                        f"{a.salience}): probing activated both rules on the "
                        f"same fact tuple; only definition order decides "
                        f"which fires first",
                        location=location_of(a.then),
                        other=b.name,
                        salience=a.salience,
                    )
                continue
            high, low = (a, b) if a.salience > b.salience else (b, a)
            low_tuples = log.tuples[low.name]
            if not low_tuples or not low_tuples <= log.tuples[high.name]:
                continue
            if {"retract", "update"} & callable_names(high.then):
                report.add(
                    "R004",
                    Severity.WARNING,
                    low.name,
                    f"shadowed by {high.name!r} (salience {high.salience} > "
                    f"{low.salience}): every probed activation of this rule "
                    f"is also claimed by the higher rule, whose action "
                    f"consumes the shared facts",
                    location=location_of(low.then),
                    shadowed_by=high.name,
                )


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------
def lint_rules(
    name: str,
    rules: Sequence[Rule],
    session_globals: Optional[dict] = None,
    entry_types: Optional[Iterable[Type[Fact]]] = None,
    seed: int = 0,
    trials: int = 25,
) -> Report:
    """Run every rule-set check over ``rules``; returns a :class:`Report`."""
    report = Report(f"rules:{name}")
    session_globals = dict(session_globals or {})
    if entry_types is None:
        entry_types = _service_entry_types()

    rng = random.Random(seed)
    pools = harvest_constants(rule_set_functions(rules))
    factory = FactFactory(rng, pools)
    universe = probe_universe(rules)
    plans = compile_rules(rules).plans
    summaries = [rule_io(plan) for plan in plans]
    seed_bindings = {"_globals": session_globals}

    # Static checks first (no probing required).
    _check_duplicate_names(rules, report)
    for io in summaries:
        _check_attribute_refs(io, factory, report)
    _check_reachability(summaries, entry_types, report)
    _check_dependency_cycles(summaries, report)
    _check_salience_names(rules, report)
    _check_fast_path(plans, report)

    # Probing: keys soundness + activation log for ties/shadowing.  The
    # randomized probe memories are snapshotted once and reused (cloned)
    # by every later check instead of re-synthesizing facts per check.
    keys_reported: set = set()
    log = _ActivationLog(rules)
    probe_soups: list[list] = []
    for _trial in range(trials):
        memory = random_memory(universe, factory)
        probe_soups.append(snapshot_memory(memory))
        for rule in rules:
            _probe_rule(rule, memory, seed_bindings, report, keys_reported)
        log.record(_trial, rules, memory, seed_bindings)
    _check_ties_and_shadowing(summaries, log, report)

    # Divergence: each rule alone against clones of the cached soups.
    if not probe_soups:
        probe_soups.append(snapshot_memory(random_memory(universe, factory)))
    for index, rule in enumerate(rules):
        _probe_divergence(
            rule, probe_soups[index % len(probe_soups)], session_globals, report
        )

    return report


def lint_rule_set(name: str, seed: int = 0, trials: int = 25) -> Report:
    """Lint one shipped rule set by name (see :func:`shipped_rule_sets`)."""
    sets = shipped_rule_sets()
    if name not in sets:
        raise ValueError(
            f"unknown rule set {name!r}; shipped sets: {sorted(sets)}"
        )
    rules, session_globals = sets[name]
    return lint_rules(name, rules, session_globals, seed=seed, trials=trials)
