"""A forward-chaining production rule engine (Drools-flavoured).

The paper implements its Policy Service on the Drools open-source rule
engine: policies are declarative rules evaluated against facts held in a
persistent *policy memory*.  This package is our from-scratch substrate for
that role.

Concepts
--------
``Fact``
    Base class for objects placed in working memory.  Facts are mutable;
    every update bumps a version counter used for refraction.
``WorkingMemory``
    The fact store with per-type indexes and insert/update/retract.
``Pattern`` / ``Absent`` / ``Collect``
    Rule condition elements: positive match, negation-as-absence, and
    collect-all (Drools ``collect``).
``Rule``
    Named conditions + action with a salience (priority) and optional
    ``no_loop`` protection.
``Session``
    A stateful engine session: insert facts, ``fire_all()`` until quiescent.
    Matches Drools' KieSession in spirit (agenda, salience order,
    refraction so an activation fires once per fact-version combination).
    It matches through a ``JoinNetwork`` compiled from the rule pack.

:mod:`repro.rules.reference` holds the full-rescan session tests and the
verifier compare it against; it is not imported from here.
"""

from repro.rules.compiler import CompiledRuleset, compile_rules
from repro.rules.engine import Rule, RuleEngineError, Session
from repro.rules.facts import Fact, WorkingMemory
from repro.rules.network import JoinNetwork
from repro.rules.patterns import Absent, Collect, Pattern

__all__ = [
    "Absent",
    "Collect",
    "CompiledRuleset",
    "Fact",
    "JoinNetwork",
    "Pattern",
    "Rule",
    "RuleEngineError",
    "Session",
    "WorkingMemory",
    "compile_rules",
]
