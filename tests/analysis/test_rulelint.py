"""Rule-set linter: shipped sets come back clean, seeded defects are caught."""

import pytest

from repro.analysis import Severity, lint_rule_set, lint_rules, shipped_rule_sets
from repro.analysis.findings import Finding, Report

from tests.analysis import defect_fixtures as defects


def _checks(report):
    return {f.check for f in report.findings}


def _lint_defect(rules):
    return lint_rules("defect", rules, seed=0, trials=10)


# -- shipped rule sets ------------------------------------------------------
@pytest.mark.parametrize("name", sorted(shipped_rule_sets()))
def test_shipped_rule_set_has_no_errors_or_warnings(name):
    report = lint_rule_set(name, seed=0, trials=15)
    assert report.errors() == []
    assert report.by_severity(Severity.WARNING) == []


def test_unknown_rule_set_is_rejected():
    with pytest.raises(ValueError, match="unknown rule set"):
        lint_rule_set("nope")


# -- seeded defects ---------------------------------------------------------
def test_bad_key_hint_triggers_r001():
    report = _lint_defect(defects.bad_key_hint_rules())
    hits = [f for f in report.findings if f.check == "R001"]
    assert hits and all(f.severity == Severity.ERROR for f in hits)
    assert "silently lost" in hits[0].message


def test_unknown_attribute_triggers_r002():
    report = _lint_defect(defects.unknown_attribute_rules())
    hits = [f for f in report.findings if f.check == "R002"]
    assert hits and hits[0].severity == Severity.ERROR
    assert "statuss" in hits[0].message


def test_unknown_key_attribute_triggers_r002():
    from repro.rules import Pattern, Rule

    rules = [
        Rule(
            "Keyed on a phantom attribute",
            when=[Pattern(defects.ProbeFact, "t",
                          keys={"nonexistent": lambda b: 1})],
            then=lambda ctx: None,
        )
    ]
    report = _lint_defect(rules)
    assert any(
        f.check == "R002" and "nonexistent" in f.message for f in report.findings
    )


def test_salience_tie_triggers_r003():
    report = _lint_defect(defects.salience_tie_rules())
    hits = [f for f in report.findings if f.check == "R003"]
    assert hits and hits[0].severity == Severity.WARNING


def test_shadowing_triggers_r004():
    report = _lint_defect(defects.shadowing_rules())
    hits = [f for f in report.findings if f.check == "R004"]
    assert hits and hits[0].subject == "Starved low-salience probe"


def test_divergent_update_triggers_r005():
    report = _lint_defect(defects.divergent_rules())
    hits = [f for f in report.findings if f.check == "R005"]
    assert hits and hits[0].severity == Severity.ERROR


def test_no_loop_suppresses_r005():
    from repro.rules import Pattern, Rule

    def _bump(ctx):
        ctx.update(ctx.c, value=ctx.c.value + 1)

    rules = [
        Rule(
            "Increment once per external change",
            when=[Pattern(defects.CounterFact, "c",
                          where=lambda c, b: c.value >= 0)],
            then=_bump,
            no_loop=True,
        )
    ]
    report = _lint_defect(rules)
    assert not any(f.check == "R005" for f in report.findings)


def test_unreachable_rule_triggers_r006():
    report = _lint_defect(defects.unreachable_rules())
    hits = [f for f in report.findings if f.check == "R006"]
    assert hits and "OrphanFact" in hits[0].message


def test_dependency_cycle_triggers_r007():
    report = _lint_defect(defects.dependency_cycle_rules())
    hits = [f for f in report.findings if f.check == "R007"]
    assert hits and hits[0].severity == Severity.INFO
    assert set(hits[0].detail["rules"]) == {"Ping", "Pong"}


def test_magic_salience_triggers_r008():
    report = _lint_defect(defects.magic_salience_rules())
    hits = [f for f in report.findings if f.check == "R008"]
    assert hits and "magic number" in hits[0].message


def test_duplicate_rule_name_triggers_r010():
    report = _lint_defect(defects.duplicate_name_rules())
    hits = [f for f in report.findings if f.check == "R010"]
    assert hits and hits[0].severity == Severity.ERROR
    assert hits[0].subject == "Grant the probe"
    assert "more than once" in hits[0].message


def test_unique_rule_names_do_not_trigger_r010():
    report = _lint_defect(defects.shadowing_rules())
    assert not any(f.check == "R010" for f in report.findings)


def test_unkeyed_join_last_position_triggers_r009():
    report = _lint_defect(defects.unkeyed_join_rules())
    hits = [f for f in report.findings if f.check == "R009"]
    assert hits and hits[0].severity == Severity.WARNING
    assert "lazy probe" in hits[0].message


def test_delta_fallback_is_r009_info():
    report = _lint_defect(defects.shadowing_rules() + defects.unreachable_rules())
    # shadowing_rules are single-pattern (no R009); the Absent-gated
    # unreachable rule is multi-condition but single-Pattern — also no
    # R009.  Build an explicit two-pattern Absent rule instead.
    from repro.rules import Absent, Pattern, Rule

    rules = [
        Rule(
            "Gated pair",
            when=[
                Pattern(defects.ProbeFact, "t"),
                Pattern(defects.CounterFact, "c"),
                Absent(defects.OrphanFact),
            ],
            then=lambda ctx: None,
        )
    ]
    report = _lint_defect(rules)
    hits = [f for f in report.findings if f.check == "R009"]
    assert hits and hits[0].severity == Severity.INFO
    assert "delta plan" in hits[0].message
    assert "Absent" in hits[0].message


def _threshold(bindings):
    return bindings["_globals"]["threshold"]


def test_alpha_routing_findings_are_r009():
    from repro.rules import Collect, Pattern, Rule

    noop = lambda ctx: None  # noqa: E731
    rules = [
        Rule("Opens with a gate", then=noop,
             when=[Collect(defects.CounterFact, "cs"), Pattern(defects.ProbeFact, "t")]),
        Rule("Guard reads a global", then=noop,
             when=[Pattern(defects.ProbeFact, "t",
                           where=lambda t, b: t.tid > b["_globals"]["threshold"])]),
        Rule("Guard reads a global through a helper", then=noop,
             when=[Pattern(defects.ProbeFact, "t",
                           where=lambda t, b: t.tid > _threshold(b))]),
        Rule("Only a later guard reads a global", then=noop,
             when=[Pattern(defects.ProbeFact, "t"),
                   Pattern(defects.CounterFact, "c",
                           where=lambda c, b: c.value > _threshold(b))]),
    ]
    hits = {
        f.subject: f for f in _lint_defect(rules).findings
        if f.check == "R009" and "alpha memory" in f.message
    }
    assert sorted(hits) == sorted(rule.name for rule in rules[:3])
    assert hits["Opens with a gate"].severity == Severity.INFO
    assert "visited on every mutation" in hits["Opens with a gate"].message
    for name in ("Guard reads a global", "Guard reads a global through a helper"):
        assert hits[name].severity == Severity.WARNING
        assert "_globals" in hits[name].message


@pytest.mark.parametrize("name", sorted(shipped_rule_sets()))
def test_shipped_rule_sets_are_all_alpha_routed(name):
    report = lint_rule_set(name, seed=0, trials=2)
    assert not [
        f for f in report.findings if f.check == "R009" and "alpha memory" in f.message
    ]


def test_probing_is_deterministic():
    first = _lint_defect(defects.bad_key_hint_rules())
    second = _lint_defect(defects.bad_key_hint_rules())
    assert [f.to_dict() for f in first.sorted_findings()] == [
        f.to_dict() for f in second.sorted_findings()
    ]


# -- findings / report machinery -------------------------------------------
def test_finding_rejects_unknown_severity():
    with pytest.raises(ValueError, match="unknown severity"):
        Finding("R999", "fatal", "subject", "message")


def test_report_suppression_by_check_and_substring():
    report = Report("t")
    report.add("R003", Severity.WARNING, "rule one", "tie")
    report.add("R003", Severity.WARNING, "rule two", "tie")
    report.add("R001", Severity.ERROR, "rule one", "keys")
    report.suppress(["R003:rule one", "R006"])
    assert [f.subject for f in report.findings if f.check == "R003"] == ["rule two"]
    assert report.suppressed == {"R003:rule one": 1, "R006": 0}
    assert len(report.errors()) == 1


def test_report_render_and_json_round_trip():
    import json

    report = Report("t")
    report.add("R001", Severity.ERROR, "r", "broken", location="f.py:3")
    text = report.render_text()
    assert "1 error(s)" in text and "f.py:3" in text
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["findings"][0]["check"] == "R001"
    assert doc["counts"]["error"] == 1


def test_salience_ordering_invariants_hold_and_detect_breakage():
    from repro.policy import salience

    salience.validate_ordering()  # shipped tiers must pass
    broken = dict(salience.TIERS)
    broken["ACK"] = broken["COMPLETION"] + 1
    with pytest.raises(ValueError, match="ordering invariants"):
        salience.validate_ordering(broken)
