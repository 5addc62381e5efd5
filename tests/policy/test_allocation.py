"""Tests of the analytic allocator — must reproduce Table IV exactly."""

import pytest

from repro.policy import PolicyConfig, PolicyService
from repro.policy.allocation import (
    format_table4,
    greedy_allocate,
    greedy_allocation_trace,
    max_streams_table,
)

from tests.policy.conftest import spec

#: Table IV from the paper, verbatim.
PAPER_TABLE4 = {
    50: {4: 57, 6: 61, 8: 63, 10: 65, 12: 65},
    100: {4: 80, 6: 103, 8: 107, 10: 110, 12: 111},
    200: {4: 80, 6: 120, 8: 160, 10: 200, 12: 203},
}


def test_greedy_allocate_cases():
    assert greedy_allocate(8, 0, 50) == 8       # fits
    assert greedy_allocate(8, 48, 50) == 2      # trimmed to threshold
    assert greedy_allocate(8, 50, 50) == 1      # threshold reached
    assert greedy_allocate(8, 60, 50) == 1      # threshold exceeded


def test_greedy_allocate_validation():
    with pytest.raises(ValueError):
        greedy_allocate(0, 0, 50)
    with pytest.raises(ValueError):
        greedy_allocate(4, -1, 50)
    with pytest.raises(ValueError):
        greedy_allocate(4, 0, 0)


def test_trace_paper_example():
    """Paper: threshold 50, default 8 -> six 8s, one 2, thirteen 1s."""
    trace = greedy_allocation_trace(20, 8, 50)
    assert trace == [8] * 6 + [2] + [1] * 13
    assert sum(trace) == 63


def test_trace_validation():
    with pytest.raises(ValueError):
        greedy_allocation_trace(-1, 4, 50)


def test_table4_matches_paper_exactly():
    table = max_streams_table()
    assert table["no_policy"] == 80
    for threshold, row in PAPER_TABLE4.items():
        for default, expected in row.items():
            assert table["greedy"][threshold][default] == expected, (
                f"threshold={threshold} default={default}"
            )


def test_format_table4_renders_all_rows():
    text = format_table4(max_streams_table())
    assert "No policy case" in text
    for value in ("57", "63", "103", "203", "80"):
        assert value in text


def test_rule_engine_agrees_with_analytic_allocator():
    """The Table II rules and the pure function produce identical grants."""
    for threshold in (50, 100, 200):
        for default in (4, 6, 8, 10, 12):
            service = PolicyService(
                PolicyConfig(policy="greedy", default_streams=default,
                             max_streams=threshold)
            )
            engine_grants = [
                service.submit_transfers("wf", f"j{i}", [spec(f"f{i}")])[0].streams
                for i in range(20)
            ]
            assert engine_grants == greedy_allocation_trace(20, default, threshold), (
                f"threshold={threshold} default={default}"
            )
