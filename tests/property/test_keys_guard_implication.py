"""Property: every shipped condition's keyed lookup returns exactly the
facts its constraints and guard accept.

A condition element states its equalities as constraints
(``lfn=Ref("t", "lfn")``) and the engine fetches its candidates through a
hash index on the constrained attributes, leaving the guard to judge the
rest.  This test rebuilds the shipped rule-set compositions and checks,
over hypothesis-generated working memories, that the index probe agrees
with a full scan of the type extent filtered by the constraints (read
here straight off ``element.constraints``, not through the engine) and
the guard: nothing lost, nothing extra.  The memories hold several
transfers with distinct tids, half of them new, so the joins of two
transfers on one file (batch dedup) are exercised.
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
from repro.rules.patterns import Absent, Collect, Pattern, Ref

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
    # half the transfers are new: the joins of two of them need a pair
    fact.status = draw(st.one_of(st.just("new"), st.sampled_from(TRANSFER_STATUSES)))
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


def _numbered(transfers):
    """Distinct tids, as the service hands out: a join on ``tid >``
    needs two."""
    for tid, fact in enumerate(transfers):
        fact.tid = tid
    return transfers


def memories():
    # Transfers come in their own list: a join of two transfers on one
    # file (batch dedup, in-flight dedup) needs several of them.
    return st.builds(
        lambda transfers, others: _numbered(transfers) + others,
        st.lists(transfer_facts(), min_size=2, max_size=8),
        st.lists(
            st.one_of(
                staged_file_facts(),
                host_pair_facts(),
                cluster_allocation_facts(),
                cleanup_facts(),
                _misc_facts(),
            ),
            max_size=10,
        ),
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


_MISSING = object()


def _constraints_ok(element, fact, bindings):
    """The element's equalities, evaluated one by one: a reference reads
    the bound fact's attribute (a missing one matches nothing)."""
    for attr, value in element.constraints.items():
        if isinstance(value, Ref):
            value = getattr(bindings[value.binding], value.attr, _MISSING)
            if value is _MISSING:
                return False
        if getattr(fact, attr, _MISSING) != value:
            return False
    return True


def _accepted(element, memory, bindings):
    """Full scan: the facts of the type the constraints and guard accept."""
    return [
        f for f in memory.facts_of(element.fact_type)
        if _constraints_ok(element, f, bindings) and _guard_ok(element.where, f, bindings)
    ]


def _assert_lookup_exact(element, memory, bindings, accepted):
    """The keyed lookup, guard applied, returns exactly the scan's facts."""
    keyed = [
        f for f in element.candidates(memory, bindings)
        if _guard_ok(element.where, f, bindings)
    ]
    assert [id(f) for f in keyed] == [id(f) for f in accepted], (
        f"constraints {element.constraints!r} on {element!r}: the index "
        f"returns {[f.describe() for f in keyed]}, a full scan "
        f"{[f.describe() for f in accepted]}"
    )


def _walk_rule(rule, memory, seed_bindings):
    """Full-scan LHS walk, checking every keyed element along the way."""
    frontier = [dict(seed_bindings)]
    for element in rule.when:
        next_frontier = []
        for bindings in frontier:
            accepted = _accepted(element, memory, bindings)
            if element.constraints:
                _assert_lookup_exact(element, memory, bindings, accepted)
            if isinstance(element, Pattern):
                for fact in accepted:
                    new = dict(bindings)
                    if element.binding:
                        new[element.binding] = fact
                    next_frontier.append(new)
            elif isinstance(element, Absent):
                if not accepted:
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
