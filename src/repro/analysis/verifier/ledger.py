"""V002/V003 — ledger balance and retract-while-referenced.

V002 (dynamic): every reserve-shaped write must have a matching release
path for every terminal subject state.  The checker synthesizes
*entry-shaped* fact soups (facts built the way the service entry points
build them, bookkeeping pristine), fires the pack to admit them, records
every numeric attribute that **rose** above its pristine baseline (stream
slots on host pairs / clusters, tenant in-flight ledgers, quota charges),
then drives every subject (transfer/cleanup lifecycle fact) to a terminal
status and fires again.  A charge still standing afterwards is a leak:

* terminal ``"failed"`` — **error**: the failure path must fully unwind
  its reservations, or crash-heavy runs strangle the ledgers; the finding
  carries a minimized, machine-replayed counterexample.
* terminal ``"done"``   — **info**: charges retained after success are
  usually deliberate accounting (bytes-staged totals, quota usage); they
  are surfaced for review, not failed on.

V003 (static): a higher-salience rule retracts facts that lower tiers
still positively match on, and the guard domains cannot prove the two
never see the same fact — a **warning**, because the lower rule's
pending work silently disappears mid-cascade.  Opaque actions (retract
targets found via memory scans) are reported once per rule as **info**:
the analysis is incomplete there, not clean.
"""

from __future__ import annotations

from typing import Callable, Sequence, Type

from repro.analysis.findings import Report, Severity, location_of
from repro.analysis.probing import (
    FactFactory,
    entry_defaults,
    snapshot_fact,
)
from repro.analysis.verifier.interaction import InteractionGraph
from repro.analysis.verifier.replay import (
    counterexample_doc,
    minimize_soup,
    replay_counterexample,
    run_ledger_scenario,
    type_ref,
)
from repro.rules.engine import Rule
from repro.rules.facts import Fact

__all__ = ["check_ledgers", "check_retracts", "subject_types_of"]

#: statuses a lifecycle subject is driven to, and how a standing charge
#: at that terminal is classified
_TERMINALS = (("failed", Severity.ERROR), ("done", Severity.INFO))


def subject_types_of(
    universe: Sequence[Type[Fact]], factory: FactFactory
) -> list[Type[Fact]]:
    """Lifecycle subjects: types whose entry-shaped instances start in the
    ``"submitted"`` state — the facts the service later drives to a
    terminal status (transfers, cleanups, and fixture equivalents)."""
    subjects = []
    for fact_type in universe:
        defaults = entry_defaults(fact_type, factory)
        if defaults.get("status") == "submitted":
            subjects.append(fact_type)
    return subjects


def _entry_soup(
    universe: Sequence[Type[Fact]],
    subjects: Sequence[Type[Fact]],
    factory: FactFactory,
) -> tuple[list[tuple], list[int]]:
    """One randomized pre-admission soup of entry-shaped facts; returns
    (fact specs, indices of the subject facts)."""
    rng = factory.rng
    soup: list[tuple] = []
    subject_indices: list[int] = []
    for fact_type in universe:
        if fact_type in subjects:
            continue
        for _ in range(rng.randint(0, 2)):
            fact = factory.make(fact_type, entry=True)
            if fact is not None:
                soup.append(snapshot_fact(fact))
    for fact_type in subjects:
        for _ in range(rng.randint(1, 3)):
            fact = factory.make(fact_type, entry=True)
            if fact is not None:
                subject_indices.append(len(soup))
                soup.append(snapshot_fact(fact))
    return soup, subject_indices


def check_ledgers(
    name: str,
    rules: Sequence[Rule],
    rule_builders: Sequence[Callable],
    session_globals: dict,
    universe: Sequence[Type[Fact]],
    factory: FactFactory,
    report: Report,
    trials: int = 8,
) -> None:
    """Run the V002 ledger-balance check over randomized entry lifecycles."""
    subjects = subject_types_of(universe, factory)
    if not subjects:
        return
    defaults = {
        type_ref(fact_type): {
            attr: value
            for attr, value in entry_defaults(fact_type, factory).items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        for fact_type in universe
    }
    seen: set = set()
    for terminal, severity in _TERMINALS:
        for _trial in range(trials):
            soup, subject_indices = _entry_soup(universe, subjects, factory)
            if not subject_indices:
                continue
            leaks = run_ledger_scenario(
                rules, session_globals, soup, subject_indices, terminal, defaults
            )
            for leak in leaks or ():
                marker = (terminal, leak["type_ref"], leak["attr"])
                if marker in seen:
                    continue
                seen.add(marker)
                _report_leak(
                    name, rules, rule_builders, session_globals,
                    soup, subject_indices, terminal, severity, defaults,
                    leak, report,
                )


def _report_leak(
    name: str,
    rules: Sequence[Rule],
    rule_builders: Sequence[Callable],
    session_globals: dict,
    soup: Sequence[tuple],
    subject_indices: Sequence[int],
    terminal: str,
    severity: str,
    defaults: dict,
    leak: dict,
    report: Report,
) -> None:
    target = (leak["type_ref"], leak["attr"])

    def still_leaks(candidate: Sequence[tuple]) -> bool:
        # subject indices shift as facts drop; recompute from identity
        index_of = {id(spec): i for i, spec in enumerate(candidate)}
        new_subjects = [
            index_of[id(soup[i])] for i in subject_indices if id(soup[i]) in index_of
        ]
        if not new_subjects:
            return False
        found = run_ledger_scenario(
            rules, session_globals, candidate, new_subjects, terminal, defaults
        )
        return any((f["type_ref"], f["attr"]) == target for f in found or ())

    minimal = minimize_soup(soup, still_leaks)
    index_of = {id(spec): i for i, spec in enumerate(minimal)}
    minimal_subjects = [
        index_of[id(soup[i])] for i in subject_indices if id(soup[i]) in index_of
    ]
    doc = counterexample_doc(
        "ledger", rule_builders, session_globals, minimal,
        subjects=minimal_subjects, terminal=terminal, defaults=defaults,
        leaks=[{k: v for k, v in leak.items() if k != "fact"}], pack=name,
    )
    if severity == Severity.ERROR and not replay_counterexample(doc)["reproduced"]:
        return  # no heuristic-only errors
    verb = "leaks" if severity == Severity.ERROR else "retains"
    report.add(
        "V002",
        severity,
        f"{leak['fact_type']}.{leak['attr']}",
        f"reserve-shaped charge on {leak['fact_type']}.{leak['attr']} "
        f"{verb} after every subject reaches terminal state "
        f"{terminal!r}: {leak['residual']!r} held vs. pristine "
        f"{leak['expected']!r} ({leak['fact']}); "
        + (
            "the failure path must release every reservation"
            if severity == Severity.ERROR
            else "retained-on-success charges are accounting by design — "
            "review, do not unwind"
        ),
        counterexample=doc,
        terminal=terminal,
    )


def check_retracts(graph: InteractionGraph, report: Report) -> None:
    """V003: retract-while-referenced across salience tiers (static)."""
    for retractor, reader, fact_type, detail in graph.retract_while_referenced():
        report.add(
            "V003",
            Severity.WARNING,
            retractor.name,
            f"retracts {fact_type.__name__} (salience {retractor.salience}) "
            f"while lower-tier rule {reader.name!r} (salience "
            f"{reader.salience}) still positively matches on it and "
            f"{detail}: pending lower-tier work can vanish mid-cascade",
            location=location_of(retractor.rule.then),
            reader=reader.name,
            fact_type=fact_type.__name__,
        )
    for io in graph.nodes.values():
        if io.effects.opaque and io.approx_written_types:
            types = sorted(t.__name__ for t in io.approx_written_types)
            report.add(
                "V003",
                Severity.INFO,
                io.name,
                "action resolves working-memory targets through memory "
                f"scans; retract-while-referenced analysis is incomplete "
                f"for {', '.join(types)}",
                location=location_of(io.rule.then),
            )
