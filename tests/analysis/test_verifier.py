"""Verifier: live compositions come back clean, and V005 reports a rule
whose compiled plan disagrees with its condition shape."""

import pytest

import repro.rules.compiler as compiler_module
from repro.analysis import Severity, flag_dead_suppressions, verify_pack
from repro.analysis.verifier import verify_compositions

#: the join rule the scorecard's ``compiler-kind`` mutant misclassifies
DEDUP = "Remove duplicate transfers from the transfer list"


def test_v005_reports_a_plan_whose_kind_disagrees_with_the_rule_shape(monkeypatch):
    classify = compiler_module._classify

    def flipped(rule, order):
        plan = classify(rule, order)
        if rule.name == DEDUP:
            plan.kind = "delta" if plan.kind == "join" else "join"
        return plan

    monkeypatch.setattr(compiler_module, "_classify", flipped)
    rules, _globals = verify_compositions()["greedy"]
    hits = [f for f in verify_pack("greedy", rules).errors() if f.check == "V005"]
    assert [f.subject for f in hits] == [DEDUP]
    assert "2 condition elements, 2 bound patterns" in hits[0].message
    assert hits[0].detail["plan"] == "delta"


# -- live compositions ------------------------------------------------------
@pytest.mark.parametrize("name", sorted(verify_compositions()))
def test_live_composition_verifies_clean(name):
    rules, _globals = verify_compositions()[name]
    report = verify_pack(name, rules)
    assert report.errors() == []
    assert report.by_severity(Severity.WARNING) == []


# -- dead suppressions ------------------------------------------------------
def test_dead_suppression_flagged_as_s001():
    from repro.analysis.findings import Report

    alive = Report("a")
    alive.add("V005", Severity.ERROR, "some rule", "msg")
    alive.suppress(["V005", "V009:never"])
    dead = flag_dead_suppressions([alive])
    assert [f.check for f in dead.findings] == ["S001"]
    assert dead.findings[0].subject == "V009:never"
    assert dead.findings[0].severity == Severity.WARNING


def test_spec_alive_in_any_report_is_not_flagged():
    from repro.analysis.findings import Report

    first, second = Report("a"), Report("b")
    first.add("V005", Severity.ERROR, "rule", "msg")
    first.suppress(["V005"])
    second.suppress(["V005"])  # consumes nothing here
    assert not flag_dead_suppressions([first, second]).findings
