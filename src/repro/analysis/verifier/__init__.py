"""Whole-pack semantic verification (V001–V005).

Where the rule linter (R001–R010) checks rules one at a time, the
verifier checks their *interactions*:

======  =========  =====================================================
check   severity   meaning
======  =========  =====================================================
V001    error      pack not confluent: final state depends on the agenda
                   tie-break (counterexample replays the divergence)
V002    error/info reserve-shaped charge never released on a terminal
                   path (error on ``failed``; info for retained-on-done
                   accounting)
V003    warning    higher tier retracts facts a lower tier still matches
                   (info when the action is too opaque to analyse)
V004    error      the join network and the reference session reach
                   different final states on the same soup
                   (counterexample replays both)
V005    error      compiler join/delta plan or ``reads`` change-gating
                   disagrees with the interaction graph (static-exact)
======  =========  =====================================================

Every V-series **error** from the dynamic checks (V001/V002/V004)
carries ``detail["counterexample"]`` — a JSON document that
:func:`replay_counterexample` re-runs from scratch in real sessions.
V005 errors are exact consequences of scanned bytecode and carry their
witness (the offending read/plan sets) instead.

Suppression policy: a suppression lives in :data:`VERIFY_SUPPRESSIONS`
**with an inline justification comment**, or it does not live at all.
Dead suppressions (consuming zero findings across a full run) are
surfaced as S001 warnings by the CLI, so stale justifications rot
loudly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.analysis.findings import Report
from repro.analysis.probing import (
    FactFactory,
    harvest_constants,
    probe_universe,
    random_memory,
    rule_set_functions,
    snapshot_memory,
)
from repro.analysis.verifier.composition import (
    check_compiler_agreement,
    check_engine_parity,
    verify_compositions,
)
from repro.analysis.verifier.confluence import check_confluence
from repro.analysis.verifier.interaction import InteractionGraph, build_graph
from repro.analysis.verifier.ledger import check_ledgers, check_retracts
from repro.analysis.verifier.replay import replay_counterexample

__all__ = [
    "VerifyOptions",
    "VERIFY_SUPPRESSIONS",
    "verify_pack",
    "verify_compositions",
    "build_graph",
    "InteractionGraph",
    "replay_counterexample",
]


#: Justified suppressions applied to every verifier report.  Policy:
#: each entry carries the *why* right here; anything without a reason is
#: reverted in review, and entries that stop matching show up as S001
#: dead-suppression warnings in `repro lint --verify`.
VERIFY_SUPPRESSIONS: list[str] = [
    # Lease expiry (salience 97) retracts an approved/in-progress
    # CleanupFact that the dedup rule (85) uses as its "someone is already
    # on it" witness.  That is the designed semantics: once the holder's
    # lease lapses, duplicates SHOULD stop deferring and re-approve the
    # cleanup — the retract un-shadows the lower tier on purpose (covered
    # by the lease tests in tests/policy/test_leases.py).
    "V003:Expire a cleanup whose lease deadline has passed",
]


@dataclass
class VerifyOptions:
    """Budgets and scope for a verifier run."""

    seed: int = 0
    #: number of small-scope random universes for confluence/parity
    universes: int = 6
    #: facts per type per universe (small scope on purpose)
    per_type: int = 2
    #: randomized entry-lifecycle trials per terminal state (V002)
    ledger_trials: int = 8
    #: apply VERIFY_SUPPRESSIONS (tests disable to see raw findings)
    apply_suppressions: bool = True
    extra_suppressions: tuple = ()


def verify_pack(
    name: str,
    rule_builders: Sequence[Callable],
    session_globals: dict,
    options: Optional[VerifyOptions] = None,
) -> Report:
    """Run every V-series check over one composed rule pack.

    ``rule_builders`` are the zero-argument pack factories whose
    concatenation is the pack under test; counterexamples reference them
    by import path so they replay from the document alone.
    """
    options = options or VerifyOptions()
    rules = []
    for builder in rule_builders:
        rules.extend(builder())
    report = Report(f"verify:{name}")
    session_globals = dict(session_globals)

    rng = random.Random(options.seed)
    factory = FactFactory(rng, harvest_constants(rule_set_functions(rules)))
    universe = probe_universe(rules)
    graph = build_graph(rules, factory)

    soups = [
        snapshot_memory(random_memory(universe, factory, options.per_type))
        for _ in range(options.universes)
    ]

    check_confluence(
        name, rules, rule_builders, session_globals, soups, graph, report
    )
    check_ledgers(
        name, rules, rule_builders, session_globals, universe, factory,
        report, trials=options.ledger_trials,
    )
    check_retracts(graph, report)
    check_engine_parity(name, rules, rule_builders, session_globals, soups, report)
    check_compiler_agreement(rules, graph, report)

    if options.apply_suppressions:
        report.suppress([*VERIFY_SUPPRESSIONS, *options.extra_suppressions])
    return report

