"""Rule-set linter: shipped sets come back clean, seeded defects are caught."""

import pytest

from repro.analysis import Severity, lint_rule_set, lint_rules, shipped_rule_sets
from repro.analysis.findings import Finding, Report

from tests.analysis import defect_fixtures as defects


def _checks(report):
    return {f.check for f in report.findings}


def _lint_defect(rules):
    return lint_rules("defect", rules)


# -- shipped rule sets ------------------------------------------------------
@pytest.mark.parametrize("name", sorted(shipped_rule_sets()))
def test_shipped_rule_set_has_no_errors_or_warnings(name):
    report = lint_rule_set(name)
    assert report.errors() == []
    assert report.by_severity(Severity.WARNING) == []


def test_unknown_rule_set_is_rejected():
    with pytest.raises(ValueError, match="unknown rule set"):
        lint_rule_set("nope")


# -- seeded defects ---------------------------------------------------------
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
    report = _lint_defect(defects.magic_salience_rules() + defects.unkeyed_join_rules())
    assert not any(f.check == "R010" for f in report.findings)


def test_unkeyed_join_last_position_triggers_r009():
    report = _lint_defect(defects.unkeyed_join_rules())
    hits = [f for f in report.findings if f.check == "R009"]
    assert hits and hits[0].severity == Severity.WARNING
    assert "lazy probe" in hits[0].message


def test_delta_fallback_is_r009_info():
    from repro.rules import Absent, Pattern, Rule

    rules = [
        Rule(
            "Gated pair",
            when=[
                Pattern(defects.ProbeFact, "t"),
                Pattern(defects.CounterFact, "c"),
                Absent(defects.CounterFact),
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
    report = lint_rule_set(name)
    assert not [
        f for f in report.findings if f.check == "R009" and "alpha memory" in f.message
    ]


def test_probing_is_deterministic():
    first = _lint_defect(defects.unkeyed_join_rules())
    second = _lint_defect(defects.unkeyed_join_rules())
    assert [f.to_dict() for f in first.sorted_findings()] == [
        f.to_dict() for f in second.sorted_findings()
    ]


# -- findings / report machinery -------------------------------------------
def test_finding_rejects_unknown_severity():
    with pytest.raises(ValueError, match="unknown severity"):
        Finding("R999", "fatal", "subject", "message")


def test_report_suppression_by_check_and_substring():
    report = Report("t")
    report.add("R008", Severity.WARNING, "rule one", "magic")
    report.add("R008", Severity.WARNING, "rule two", "magic")
    report.add("R010", Severity.ERROR, "rule one", "twice")
    report.suppress(["R008:rule one", "R009"])
    assert [f.subject for f in report.findings if f.check == "R008"] == ["rule two"]
    assert report.suppressed == {"R008:rule one": 1, "R009": 0}
    assert len(report.errors()) == 1


def test_report_render_and_json_round_trip():
    import json

    report = Report("t")
    report.add("R010", Severity.ERROR, "r", "broken", location="f.py:3")
    text = report.render_text()
    assert "1 error(s)" in text and "f.py:3" in text
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["findings"][0]["check"] == "R010"
    assert doc["counts"]["error"] == 1


def test_salience_ordering_invariants_hold_and_detect_breakage():
    from repro.policy import salience

    salience.validate_ordering()  # shipped tiers must pass
    broken = dict(salience.TIERS)
    broken["ACK"] = broken["COMPLETION"] + 1
    with pytest.raises(ValueError, match="ordering invariants"):
        salience.validate_ordering(broken)
