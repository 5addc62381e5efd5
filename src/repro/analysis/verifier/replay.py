"""Machine-replayable counterexamples for verifier findings.

Every V-series *error* the verifier emits carries a counterexample
document: a JSON-safe description of a concrete fact soup, session
globals, and the scenario (tie-break permutation, terminal drive, or
network-versus-reference run) that reproduces the violation in a real
:class:`Session`.
:func:`replay_counterexample` decodes such a document, runs the scenario
from scratch, and reports whether the violation still reproduces — so a
finding is never "the analyzer thinks"; it is "run this and watch".

The same scenario runners are used twice: the checkers call them while
searching and minimizing, and :func:`replay_counterexample` calls them
when a test (or a human) wants the violation demonstrated.
"""

from __future__ import annotations

import copy
import importlib
import json
from typing import Any, Callable, Optional, Sequence

from repro.analysis.probing import clone_memory
from repro.rules.engine import Rule, Session
from repro.rules.facts import WorkingMemory, decode_value, encode_value
from repro.rules.reference import ReferenceSession

__all__ = [
    "canonical_state",
    "type_ref",
    "encode_globals",
    "decode_globals",
    "tie_break_for",
    "run_confluence_scenario",
    "run_ledger_scenario",
    "run_engine_scenario",
    "replay_counterexample",
]


# --------------------------------------------------------------------------
# Canonical state fingerprints
# --------------------------------------------------------------------------
def _canon_value(value: Any) -> str:
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(repr(v) for v in value)) + "}"
    if isinstance(value, float) and value == int(value):
        return repr(int(value)) + ".0"
    return repr(value)


#: attributes renumbered before comparison: transfer group ids come from a
#: session-global counter, so equivalent runs that allocate groups in a
#: different order produce renumber-equal, not literally equal, states.
_RENUMBERED_ATTRS = frozenset({"group_id"})


def canonical_state(memory: WorkingMemory) -> list[str]:
    """Order-independent canonical rendering of every live fact.

    Group ids are canonically renumbered by first appearance in the
    sorted group-free rendering, so two runs differing only in group
    numbering compare equal.
    """
    rows = []
    for fact in memory:
        attrs = dict(vars(fact))
        groups = {k: attrs.pop(k) for k in list(attrs) if k in _RENUMBERED_ATTRS}
        base = (
            type(fact).__name__
            + "("
            + ",".join(f"{k}={_canon_value(v)}" for k, v in sorted(attrs.items()))
            + ")"
        )
        rows.append((base, groups))
    rows.sort(key=lambda r: (r[0], sorted((k, repr(v)) for k, v in r[1].items())))
    mapping: dict = {}
    out = []
    for base, groups in rows:
        renamed = {}
        for key, value in sorted(groups.items()):
            if value in (None, 0):
                renamed[key] = value
            else:
                renamed[key] = mapping.setdefault(value, f"g{len(mapping) + 1}")
        if renamed:
            suffix = ",".join(f"{k}={v!r}" for k, v in sorted(renamed.items()))
            base = base[:-1] + ("," if base[-2] != "(" else "") + suffix + ")"
        out.append(base)
    return out


# --------------------------------------------------------------------------
# Type references and session globals in documents
# --------------------------------------------------------------------------
def type_ref(cls: type) -> str:
    """The ``module:qualname`` a document names a class or function by."""
    return f"{cls.__module__}:{cls.__qualname__}"


def _resolve_type(ref: str) -> type:
    module_name, _, qualname = ref.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _encode_object(value: Any) -> dict:
    """Globals such as ``PolicyConfig``: rebuilt from their attribute dict."""
    if not hasattr(value, "__dict__") or type(value).__module__ == "builtins":
        raise TypeError(f"cannot encode {value!r} for counterexample replay")
    return {
        "__object__": type_ref(type(value)),
        "attrs": encode_value(vars(value), _encode_object),
    }


def _revive_object(doc: dict) -> Any:
    if "__object__" not in doc:
        return doc
    obj = object.__new__(_resolve_type(doc["__object__"]))
    obj.__dict__.update(doc["attrs"])
    return obj


def encode_globals(session_globals: dict) -> dict:
    return encode_value(session_globals, _encode_object)


def decode_globals(doc: dict) -> dict:
    return decode_value(doc, _revive_object)


# --------------------------------------------------------------------------
# Tie-break permutations (see ReferenceSession(tie_break=...))
# --------------------------------------------------------------------------
def tie_break_for(permutation: dict, rules: Sequence[Rule]) -> Optional[Callable]:
    """Build the deterministic agenda tie-break a permutation spec names.

    ``{"kind": "default"}``   — None (fact-id tuple, then definition order)
    ``{"kind": "swap", "rules": [a, b]}`` — a and b trade definition ranks
    ``{"kind": "reverse"}``   — definition order reversed within fid ties
    ``{"kind": "rulemajor"}`` — definition order outranks the fid tuple
    """
    kind = permutation.get("kind", "default")
    if kind == "default":
        return None
    if kind == "swap":
        first, second = permutation["rules"]
        orders = {rule.name: order for order, rule in enumerate(rules)}
        mapped = {first: orders[second], second: orders[first]}

        def swap_rank(rule, order, key):
            return (key[1], mapped.get(rule.name, order))

        return swap_rank
    if kind == "reverse":
        return lambda rule, order, key: (key[1], -order)
    if kind == "rulemajor":
        return lambda rule, order, key: (order, key[1])
    raise ValueError(f"unknown tie-break permutation {permutation!r}")


# --------------------------------------------------------------------------
# Scenario runners (used by both the checkers and replay)
# --------------------------------------------------------------------------
def _fresh_session(
    rules: Sequence[Rule],
    session_globals: dict,
    soup: Sequence[tuple],
    session_class: type = Session,
    **options,
):
    memory = clone_memory(soup)
    session = session_class(
        rules, memory=memory, globals=copy.deepcopy(session_globals),
        max_firings=20_000, **options,
    )
    return session, memory


def run_confluence_scenario(
    rules: Sequence[Rule],
    session_globals: dict,
    soup: Sequence[tuple],
    permutation: dict,
) -> Optional[list[str]]:
    """Fire the pack over a clone of ``soup`` under a tie-break permutation;
    returns the canonical final state, or None if an action crashed on the
    synthetic facts (inconclusive)."""
    # Tie-break permutations exist only on the reference session.
    session, memory = _fresh_session(
        rules, session_globals, soup, ReferenceSession,
        tie_break=tie_break_for(permutation, rules),
    )
    try:
        session.fire_all()
    except Exception:
        return None
    return canonical_state(memory)


def run_ledger_scenario(
    rules: Sequence[Rule],
    session_globals: dict,
    soup: Sequence[tuple],
    subjects: Sequence[int],
    terminal: str,
    defaults: dict[str, dict],
) -> Optional[list[dict]]:
    """Admission-fire, drive every subject fact to ``terminal``, fire again;
    return the residual reserve-shaped charges (leaks).

    ``soup`` is the pre-admission memory; ``subjects`` index the facts in
    it whose ``status`` is driven to the terminal state (the transfers /
    cleanups whose lifecycle ends).  ``defaults`` maps type refs to the
    pristine numeric baseline of facts *rules create during the run*.
    Returns None when an action crashed (inconclusive).
    """
    session, memory = _fresh_session(rules, session_globals, soup)
    facts = list(memory)
    subject_facts = [facts[i] for i in subjects]
    baseline = _numeric_snapshot(memory)
    try:
        session.fire_all()
    except Exception:
        return None

    after_admission = _numeric_snapshot(memory)
    charges = []
    for fid, (fact, values) in after_admission.items():
        if any(fact is s for s in subject_facts):
            continue  # the subject's own bookkeeping dies with it
        base = baseline.get(fid)
        if base is None:
            base_values = defaults.get(type_ref(type(fact)), {})
        else:
            base_values = base[1]
        for attr, value in values.items():
            expected = base_values.get(attr)
            if isinstance(expected, (int, float)) and value > expected + 1e-9:
                charges.append((fid, fact, attr, expected))

    for fact in subject_facts:
        if memory.contains(fact) and getattr(fact, "status", None) != terminal:
            memory.update(fact, status=terminal)
    try:
        session.fire_all()
    except Exception:
        return None

    final = _numeric_snapshot(memory)
    leaks = []
    for fid, fact, attr, expected in charges:
        row = final.get(fid)
        if row is None:
            continue  # the charged fact itself was retracted: nothing held
        residual = row[1].get(attr)
        if isinstance(residual, (int, float)) and residual > expected + 1e-9:
            leaks.append(
                {
                    "fact_type": type(fact).__name__,
                    "type_ref": type_ref(type(fact)),
                    "attr": attr,
                    "expected": expected,
                    "residual": residual,
                    "fact": fact.describe()
                    if hasattr(fact, "describe")
                    else repr(fact),
                }
            )
    return leaks


def _numeric_snapshot(memory: WorkingMemory) -> dict:
    """fid -> (fact, {attr: numeric value}) for every live fact."""
    out = {}
    for fact in memory:
        values = {
            attr: value
            for attr, value in vars(fact).items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        out[memory.fid_of(fact)] = (fact, values)
    return out


def run_engine_scenario(
    rules: Sequence[Rule],
    session_globals: dict,
    soup: Sequence[tuple],
) -> Optional[dict[str, list[str]]]:
    """Run the same soup through the join network and the reference
    session; side name -> canonical state.  None if either run crashed
    on the synthetic facts."""
    states: dict[str, list[str]] = {}
    for side, session_class in (("network", Session), ("reference", ReferenceSession)):
        session, memory = _fresh_session(rules, session_globals, soup, session_class)
        try:
            session.fire_all()
        except Exception:
            return None
        states[side] = canonical_state(memory)
    return states


# --------------------------------------------------------------------------
# Counterexample documents
# --------------------------------------------------------------------------
def _pack_rules(doc: dict) -> tuple[list[Rule], dict]:
    """Resolve the rule pack a counterexample was recorded against."""
    builders = doc.get("rule_builders")
    if builders:
        rules: list[Rule] = []
        for ref in builders:
            rules.extend(_resolve_type(ref)())
        return rules, decode_globals(doc.get("globals", {}))
    raise ValueError("counterexample carries no rule_builders")


def counterexample_doc(
    kind: str,
    rule_builders: Sequence[Callable],
    session_globals: dict,
    soup: Sequence[tuple],
    **scenario,
) -> dict:
    """Assemble a JSON-safe counterexample document.

    ``rule_builders`` are the zero-argument pack factories (e.g.
    ``common_rules``, ``greedy_rules``) whose concatenation reproduces the
    verified rule list — packs are code, so counterexamples reference them
    by import path instead of trying to serialize closures.
    """
    doc = {
        "kind": kind,
        "rule_builders": [type_ref(b) for b in rule_builders],
        "globals": encode_globals(session_globals),
        # a soup's states are encoded already (snapshot_memory)
        "facts": [{"type": type_ref(fact_type), "attrs": state} for fact_type, state in soup],
    }
    doc.update(scenario)
    json.dumps(doc)  # fail fast on anything not JSON-safe
    return doc


def replay_counterexample(doc: dict) -> dict:
    """Re-run a counterexample from its document alone.

    Returns a result dict whose ``"reproduced"`` key is True when the
    violation still shows; the rest is kind-specific evidence.
    """
    kind = doc["kind"]
    rules, session_globals = _pack_rules(doc)
    soup = [(_resolve_type(spec["type"]), spec["attrs"]) for spec in doc["facts"]]

    if kind == "confluence":
        baseline = run_confluence_scenario(
            rules, session_globals, soup, {"kind": "default"}
        )
        permuted = run_confluence_scenario(
            rules, session_globals, soup, doc["permutation"]
        )
        reproduced = (
            baseline is not None and permuted is not None and baseline != permuted
        )
        return {
            "kind": kind,
            "reproduced": reproduced,
            "baseline": baseline,
            "permuted": permuted,
        }

    if kind == "ledger":
        leaks = run_ledger_scenario(
            rules,
            session_globals,
            soup,
            doc["subjects"],
            doc["terminal"],
            doc.get("defaults", {}),
        )
        expected = {(leak["type_ref"], leak["attr"]) for leak in doc.get("leaks", [])}
        found = {(leak["type_ref"], leak["attr"]) for leak in (leaks or [])}
        return {
            "kind": kind,
            "reproduced": bool(leaks) and expected <= found,
            "leaks": leaks,
        }

    if kind == "engine":
        # An "engines" list in the document (written while there were
        # several to choose from) is not read.
        states = run_engine_scenario(rules, session_globals, soup)
        if states is None:
            return {"kind": kind, "reproduced": False, "states": None}
        unique = {tuple(state) for state in states.values()}
        return {
            "kind": kind,
            "reproduced": len(unique) > 1,
            "states": states,
        }

    raise ValueError(f"unknown counterexample kind {kind!r}")


def minimize_soup(
    soup: Sequence[tuple],
    still_fails: Callable[[Sequence[tuple]], bool],
) -> list[tuple]:
    """Greedy delta-debugging: drop facts one at a time (last first) while
    the scenario still reproduces; returns the minimal surviving soup."""
    current = list(soup)
    index = len(current) - 1
    while index >= 0:
        candidate = current[:index] + current[index + 1:]
        if candidate and still_fails(candidate):
            current = candidate
        index -= 1
    return current
