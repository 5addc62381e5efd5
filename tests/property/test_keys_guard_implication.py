"""Property: every ``keys`` hint in the shipped rule sets is implied by its
guard.

``Pattern.keys`` is an access-path hint — the engine fetches candidates
through a hash index on the keyed attributes.  If a guard ever accepts a
fact the keyed lookup does not return, that match is *silently lost*
(``src/repro/rules/patterns.py`` says so outright).  This test rebuilds the
shipped rule-set compositions and checks the implication directly over
hypothesis-generated working memories — a regression guard independent of
the ``repro.analysis`` linter, which checks the same property with its own
probing machinery.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policy.model import (
    CleanupFact,
    ClusterAllocationFact,
    HostPairFact,
    LeaseSweepFact,
    PolicyConfig,
    StagedFileFact,
    TransferFact,
)
from repro.policy.rules_access import HostDenialFact, WorkflowQuotaFact, access_rules
from repro.policy.rules_balanced import balanced_rules
from repro.policy.rules_common import common_rules
from repro.policy.rules_greedy import greedy_rules
from repro.policy.rules_priority import JobPriorityFact, priority_rules
from repro.rules import WorkingMemory
from repro.rules.patterns import Absent, Collect, Exists, Pattern, Test

HOSTS = ["h1", "h2"]
LFNS = ["f1.dat", "f2.dat"]
WORKFLOWS = ["wfA", "wfB"]
JOBS = ["j1", "j2"]
CLUSTERS = ["c0", "c1"]
TRANSFER_STATUSES = [
    "submitted", "new", "in_progress", "skip_duplicate", "skip_staged",
    "wait", "done", "failed", "denied",
]
CLEANUP_STATUSES = ["submitted", "new", "approved", "skip_in_use", "skip_duplicate"]


def _url(host, lfn):
    return f"gsiftp://{host}/data/{lfn}"


@st.composite
def transfer_facts(draw):
    lfn = draw(st.sampled_from(LFNS))
    fact = TransferFact(
        tid=draw(st.integers(0, 5)),
        workflow=draw(st.sampled_from(WORKFLOWS)),
        job=draw(st.sampled_from(JOBS)),
        lfn=lfn,
        src_url=_url(draw(st.sampled_from(HOSTS)), lfn),
        dst_url=_url(draw(st.sampled_from(HOSTS)), lfn),
        nbytes=draw(st.floats(0, 100, allow_nan=False)),
        requested_streams=draw(st.one_of(st.none(), st.integers(1, 8))),
        priority=draw(st.integers(0, 3)),
        cluster=draw(st.one_of(st.none(), st.sampled_from(CLUSTERS))),
        batch=draw(st.integers(0, 2)),
    )
    fact.status = draw(st.sampled_from(TRANSFER_STATUSES))
    fact.allocated_streams = draw(st.one_of(st.none(), st.integers(1, 8)))
    fact.group_id = draw(st.one_of(st.none(), st.integers(1, 3)))
    fact.quota_charged = draw(st.booleans())
    fact.lease_deadline = draw(st.one_of(st.none(), st.floats(0, 10, allow_nan=False)))
    fact.wait_for = draw(st.one_of(st.none(), st.integers(0, 5)))
    return fact


@st.composite
def staged_file_facts(draw):
    lfn = draw(st.sampled_from(LFNS))
    fact = StagedFileFact(
        lfn=lfn,
        dst_url=_url(draw(st.sampled_from(HOSTS)), lfn),
        owner_tid=draw(st.integers(0, 5)),
        workflow=draw(st.sampled_from(WORKFLOWS)),
    )
    fact.status = draw(st.sampled_from(["staging", "staged"]))
    fact.users = set(draw(st.lists(st.sampled_from(WORKFLOWS), max_size=2)))
    return fact


@st.composite
def host_pair_facts(draw):
    fact = HostPairFact(
        src_host=draw(st.sampled_from(HOSTS)),
        dst_host=draw(st.sampled_from(HOSTS)),
        group_id=draw(st.integers(1, 3)),
    )
    fact.allocated = draw(st.integers(0, 10))
    fact.threshold = draw(st.one_of(st.none(), st.integers(1, 10)))
    return fact


@st.composite
def cluster_allocation_facts(draw):
    fact = ClusterAllocationFact(
        src_host=draw(st.sampled_from(HOSTS)),
        dst_host=draw(st.sampled_from(HOSTS)),
        cluster=draw(st.sampled_from(CLUSTERS)),
    )
    fact.allocated = draw(st.integers(0, 10))
    return fact


@st.composite
def cleanup_facts(draw):
    lfn = draw(st.sampled_from(LFNS))
    fact = CleanupFact(
        cid=draw(st.integers(0, 5)),
        workflow=draw(st.sampled_from(WORKFLOWS)),
        job=draw(st.sampled_from(JOBS)),
        lfn=lfn,
        url=_url(draw(st.sampled_from(HOSTS)), lfn),
        batch=draw(st.integers(0, 2)),
    )
    fact.status = draw(st.sampled_from(CLEANUP_STATUSES))
    fact.lease_deadline = draw(st.one_of(st.none(), st.floats(0, 10, allow_nan=False)))
    return fact


def _misc_facts():
    return st.one_of(
        st.builds(
            JobPriorityFact,
            workflow=st.sampled_from(WORKFLOWS),
            job=st.sampled_from(JOBS),
            priority=st.integers(0, 3),
        ),
        st.builds(LeaseSweepFact, now=st.floats(0, 10, allow_nan=False)),
        st.builds(
            HostDenialFact,
            host=st.sampled_from(HOSTS),
            direction=st.sampled_from(["src", "dst", "any"]),
        ),
        _quota_facts(),
    )


@st.composite
def _quota_facts(draw):
    fact = WorkflowQuotaFact(
        workflow=draw(st.sampled_from(WORKFLOWS)),
        max_bytes=draw(st.floats(0, 200, allow_nan=False)),
    )
    fact.used_bytes = draw(st.floats(0, 200, allow_nan=False))
    return fact


def memories():
    return st.lists(
        st.one_of(
            transfer_facts(),
            staged_file_facts(),
            host_pair_facts(),
            cluster_allocation_facts(),
            cleanup_facts(),
            _misc_facts(),
        ),
        min_size=2,
        max_size=14,
    )


RULE_SETS = {
    "fifo": (lambda: common_rules() + priority_rules(), PolicyConfig(policy="fifo")),
    "greedy": (
        lambda: common_rules() + priority_rules() + greedy_rules(),
        PolicyConfig(policy="greedy"),
    ),
    "balanced": (
        lambda: common_rules() + priority_rules() + balanced_rules(),
        PolicyConfig(policy="balanced", cluster_count=2),
    ),
    "access": (
        lambda: common_rules() + priority_rules() + access_rules() + greedy_rules(),
        PolicyConfig(policy="greedy", access_control=True),
    ),
}


def _guard_ok(guard, fact, bindings):
    if guard is None:
        return True
    try:
        return bool(guard(fact, bindings))
    except AttributeError:
        return False


def _assert_keys_implied(element, memory, bindings):
    """The keyed lookup must return a superset of the guard's accepts."""
    try:
        values = {attr: fn(bindings) for attr, fn in element.keys.items()}
    except AttributeError:
        return  # the engine falls back to the full scan here
    keyed = {id(f) for f in memory.lookup(element.fact_type, **values)}
    for fact in memory.facts_of(element.fact_type):
        if _guard_ok(element.where, fact, bindings):
            assert id(fact) in keyed, (
                f"keys {values!r} on {element!r} miss guard-accepted fact "
                f"{fact.describe()} — matches would be silently lost"
            )


def _walk_rule(rule, memory, seed_bindings):
    """Guard-only LHS walk, checking every keyed element along the way."""
    frontier = [dict(seed_bindings)]
    for element in rule.when:
        if isinstance(element, Test):
            frontier = [b for b in frontier if element.predicate(b)]
            continue
        if element.keys:
            for bindings in frontier:
                _assert_keys_implied(element, memory, bindings)
        next_frontier = []
        for bindings in frontier:
            accepted = [
                f
                for f in memory.facts_of(element.fact_type)
                if _guard_ok(element.where, f, bindings)
            ]
            if isinstance(element, Pattern):
                for fact in accepted:
                    new = dict(bindings)
                    if element.binding:
                        new[element.binding] = fact
                    next_frontier.append(new)
            elif isinstance(element, Absent):
                if not accepted:
                    next_frontier.append(dict(bindings))
            elif isinstance(element, Exists):
                if accepted:
                    next_frontier.append(dict(bindings))
            elif isinstance(element, Collect):
                if len(accepted) >= element.min_count:
                    new = dict(bindings)
                    new[element.binding] = accepted
                    next_frontier.append(new)
        frontier = next_frontier
        if not frontier:
            return


@pytest.mark.parametrize("name", sorted(RULE_SETS))
@given(facts=memories())
@settings(max_examples=25, deadline=None)
def test_every_keys_spec_is_implied_by_its_guard(name, facts):
    build, config = RULE_SETS[name]
    rules = build()
    memory = WorkingMemory()
    for fact in facts:
        memory.insert(fact)
    seed = {"_globals": {"config": config, "group_counter": 1}}
    for rule in rules:
        _walk_rule(rule, memory, seed)
