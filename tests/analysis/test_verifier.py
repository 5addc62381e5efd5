"""Semantic verifier: live compositions come back clean, seeded defects
are caught, and every dynamic error replays in a real session."""

import json

import pytest

from repro.analysis import (
    Severity,
    VerifyOptions,
    flag_dead_suppressions,
    replay_counterexample,
    verify_pack,
)
from repro.analysis.probing import guard_constraint_domains
from repro.analysis.verifier import VERIFY_SUPPRESSIONS, build_graph, verify_compositions
from repro.rules import Fact, Pattern, Rule

from tests.analysis import defect_fixtures as defects


def _verify(builders, **overrides):
    options = VerifyOptions(
        seed=0, universes=6, ledger_trials=4, apply_suppressions=False,
        **overrides,
    )
    return verify_pack("defect", builders, {}, options)


def _errors(report, check):
    return [
        f for f in report.findings
        if f.check == check and f.severity == Severity.ERROR
    ]


# -- seeded defects ---------------------------------------------------------
def test_non_confluent_pack_triggers_v001_with_replayed_counterexample():
    report = _verify([defects.non_confluent_rules])
    hits = _errors(report, "V001")
    assert hits, "equal-salience writers of the same attribute must split"
    doc = hits[0].detail["counterexample"]
    result = replay_counterexample(doc)
    assert result["reproduced"]
    # the divergence needs exactly one contested probe fact
    assert len(doc["facts"]) == 1


def test_unbalanced_reserve_triggers_v002_error_on_failed_terminal():
    report = _verify([defects.unbalanced_reserve_rules])
    hits = _errors(report, "V002")
    assert hits, "failed grants leak their pool reservation"
    finding = hits[0]
    assert finding.detail["terminal"] == "failed"
    assert "PoolFact.reserved" in finding.subject
    result = replay_counterexample(finding.detail["counterexample"])
    assert result["reproduced"]
    assert result["leaks"]


def test_cross_pack_conflict_appears_only_when_composed():
    alone_a = _verify([defects.approving_pack])
    alone_b = _verify([defects.denying_pack])
    assert not _errors(alone_a, "V001")
    assert not _errors(alone_b, "V001")
    composed = _verify([defects.approving_pack, defects.denying_pack])
    hits = _errors(composed, "V001")
    assert hits, "approve vs deny at equal salience is order-dependent"
    assert replay_counterexample(hits[0].detail["counterexample"])["reproduced"]


def test_stale_reads_triggers_static_v005_and_dynamic_v004():
    report = _verify([defects.stale_reads_rules])
    v005 = _errors(report, "V005")
    assert v005, "the Absent gate's reads declaration omits 'status'"
    assert "status" in v005[0].detail["missing"]
    v004 = _errors(report, "V004")
    assert v004, "the network's change-gating must diverge from re-enumeration"
    result = replay_counterexample(v004[0].detail["counterexample"])
    assert result["reproduced"]
    assert set(result["states"]) == {"network", "reference"}
    assert result["states"]["network"] != result["states"]["reference"]


def test_counterexample_documents_are_plain_json():
    report = _verify([defects.non_confluent_rules])
    doc = _errors(report, "V001")[0].detail["counterexample"]
    rebuilt = json.loads(json.dumps(doc))
    assert replay_counterexample(rebuilt)["reproduced"]


def test_counterexample_written_with_an_engines_list_still_replays():
    doc = _errors(_verify([defects.stale_reads_rules]), "V004")[0].detail["counterexample"]
    assert "engines" not in doc
    old = dict(doc, engines=["seed", "indexed", "compiled"])  # three selectable engines
    assert replay_counterexample(old)["reproduced"]


class Item(Fact):
    def __init__(self, label: str):
        self.label = label


class Box(Fact):
    def __init__(self, name: str, count: int = 0):
        self.name = name
        self.count = count


def test_guard_reads_through_the_bindings_dict_reach_the_graph():
    # A's Box guard reads bs["i"].label, so B's relabel changes what A
    # matches: the pair interferes and must not be proven commuting.
    fill = Rule(
        "Fill the box named by an item",
        when=[
            Pattern(Item, "i"),
            Pattern(Box, "b", where=lambda b, bs: b.name == bs["i"].label and b.count == 0),
        ],
        then=lambda ctx: ctx.update(ctx.b, count=ctx.b.count + 1),
        salience=10,
    )
    relabel = Rule(
        "Relabel x items",
        when=[Pattern(Item, "i", where=lambda i, bs: i.label == "x")],
        then=lambda ctx: ctx.update(ctx.i, label="y"),
        salience=10,
    )
    graph = build_graph([fill, relabel])
    assert graph.nodes[fill.name].reads[Item] == {"label"}
    assert graph.nodes[relabel.name].effects.updates == {Item: {"label": {"y"}}}
    edges = graph.feasible_edges(relabel.name, fill.name)
    assert [(e.kind, e.fact_type, e.attrs) for e in edges] == [("update", Item, ("label",))]
    assert graph.interference(fill.name, relabel.name) == [
        f"{relabel.name} --update Item via label--> {fill.name}"
    ]


def _either_label(item):
    if item.label == "x" or item.label == "y":
        return True
    return False


def test_or_shaped_helper_has_no_conjunctive_reading():
    # the statement form of `or` must read as OR on every Python, not as
    # the (empty) intersection of both equalities
    assert guard_constraint_domains(lambda i, bs: _either_label(i)) is None


# -- live compositions ------------------------------------------------------
@pytest.mark.parametrize("name", sorted(verify_compositions()))
def test_live_composition_verifies_clean(name):
    _rules, session_globals, builders = verify_compositions()[name]
    options = VerifyOptions(seed=0, universes=3, ledger_trials=3)
    report = verify_pack(name, builders, session_globals, options)
    assert report.errors() == []
    assert report.by_severity(Severity.WARNING) == []


def test_lease_suppression_is_justified_and_alive():
    # raw: the designed lease-expiry retract shows up as a V003 warning
    _rules, session_globals, builders = verify_compositions()["greedy_leases"]
    raw = verify_pack(
        "greedy_leases", builders, session_globals,
        VerifyOptions(seed=0, universes=2, ledger_trials=2,
                      apply_suppressions=False),
    )
    warned = [f for f in raw.by_severity(Severity.WARNING) if f.check == "V003"]
    assert any("lease deadline" in f.subject for f in warned)
    # suppressed: the shipped spec consumes it, so it is not dead
    clean = verify_pack(
        "greedy_leases", builders, session_globals,
        VerifyOptions(seed=0, universes=2, ledger_trials=2),
    )
    spec = "V003:Expire a cleanup whose lease deadline has passed"
    assert spec in VERIFY_SUPPRESSIONS
    assert clean.suppressed[spec] >= 1
    assert not flag_dead_suppressions([clean]).findings


# -- dead suppressions ------------------------------------------------------
def test_dead_suppression_flagged_as_s001():
    from repro.analysis.findings import Report

    alive = Report("a")
    alive.add("V003", Severity.WARNING, "some rule", "msg")
    alive.suppress(["V003", "V009:never"])
    dead = flag_dead_suppressions([alive])
    assert [f.check for f in dead.findings] == ["S001"]
    assert dead.findings[0].subject == "V009:never"
    assert dead.findings[0].severity == Severity.WARNING


def test_spec_alive_in_any_report_is_not_flagged():
    from repro.analysis.findings import Report

    first, second = Report("a"), Report("b")
    first.add("V003", Severity.WARNING, "rule", "msg")
    first.suppress(["V003"])
    second.suppress(["V003"])  # consumes nothing here
    assert not flag_dead_suppressions([first, second]).findings


def test_counterexample_globals_round_trip_non_string_keys():
    """A counterexample's globals survive JSON with tuple and set keys."""
    from repro.analysis.verifier.replay import decode_globals, encode_globals

    doc = {"ledger": {("a", "b"): 3, frozenset({"x"}): 1}}
    assert decode_globals(json.loads(json.dumps(encode_globals(doc)))) == doc
