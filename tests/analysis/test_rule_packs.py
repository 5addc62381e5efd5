"""The linter and the verifier analyse exactly what the service loads."""

import pytest

from repro.analysis import shipped_rule_sets, verify_compositions
from repro.policy import PolicyService

COMPOSITIONS = verify_compositions()


@pytest.mark.parametrize("name", list(COMPOSITIONS))
def test_analysis_sees_the_rules_the_service_loads(name):
    rules, session_globals = COMPOSITIONS[name]
    loaded = [rule.name for rule in PolicyService(session_globals["config"])._rules]
    assert [rule.name for rule in rules] == loaded
    if name != "greedy_leases":  # the verifier's one addition
        linted, lint_globals = shipped_rule_sets()[name]
        assert lint_globals == session_globals
        assert [rule.name for rule in linted] == loaded


def test_verifier_compositions_are_the_linted_sets_plus_leases():
    assert list(COMPOSITIONS) == [
        "fifo", "greedy", "balanced", "access", "priority", "access_balanced",
        "greedy_leases", "catalog",
    ]
    assert [n for n in COMPOSITIONS if n != "greedy_leases"] == list(shipped_rule_sets())
