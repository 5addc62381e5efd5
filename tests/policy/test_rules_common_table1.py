"""Rule-by-rule tests of the Table I pack.

Each test isolates one named rule from the paper's Table I and checks its
specific effect through a service-level interaction, so a regression in
any single rule is pinpointed by name.
"""

import pytest

from repro.policy import PolicyConfig, PolicyService
from repro.policy.model import HostPairFact, StagedFileFact, TransferFact
from repro.policy.rules_common import common_rules

from tests.policy.conftest import spec


@pytest.fixture
def service():
    return PolicyService(PolicyConfig(policy="greedy", default_streams=4, max_streams=50))


def table1_rule_names():
    return [rule.name for rule in common_rules()]


def test_pack_covers_every_table1_concern():
    names = "\n".join(table1_rule_names())
    for fragment in (
        "Insert new transfers into policy memory",
        "Remove duplicate transfers",
        "already in progress",
        "Create a resource for a new transfer",
        "Associate a transfer with a resource",
        "Generate a unique group ID",
        "Assign the group ID to a transfer",
        "Detach a transfer from the resource",
        "Remove cleanups from the cleanup list",
        "Insert new cleanups into policy memory",
        "Assign a default level of parallel streams",
        "Remove a transfer that has completed",
        "Remove a transfer that has failed",
        "at least one parallel stream",
    ):
        assert fragment in names, f"missing Table I rule: {fragment}"


def test_rule_names_are_unique():
    names = table1_rule_names()
    assert len(names) == len(set(names))


# -- "Insert new transfers into policy memory" ---------------------------------
def test_insert_acknowledgement(service):
    service.submit_transfers("wf", "j", [spec("a")])
    facts = service.memory.facts_of(TransferFact)
    assert len(facts) == 1
    assert facts[0].status == "in_progress"  # submitted -> new -> in_progress


# -- "Create a resource ..." / "Associate a transfer with a resource" --------
def test_resource_created_with_owner_and_user(service):
    advice = service.submit_transfers("wf", "j", [spec("a")])
    resource = service.memory.facts_of(StagedFileFact)[0]
    assert resource.lfn == "a"
    assert resource.owner_tid == advice[0].tid
    assert resource.users == {"wf"}
    assert resource.status == "staging"


def test_resource_not_duplicated_for_same_destination(service):
    service.submit_transfers("wf1", "j1", [spec("a")])
    service.submit_transfers("wf2", "j2", [spec("a")])  # -> wait, same resource
    assert len(service.memory.facts_of(StagedFileFact)) == 1


def test_transfer_associated_with_a_resource_no_dedup_row_claims(service):
    # A resource still staging with no transfer of it in flight (the
    # service's own call order never leaves one; a direct insert does):
    # neither dedup row claims the new transfer, so the association row
    # adds its workflow to the resource's users.
    url = spec("a")["dst_url"]
    service.memory.insert(StagedFileFact("a", url, owner_tid=0, workflow="wf1"))
    (advice,) = service.submit_transfers("wf2", "j2", [spec("a")])
    assert advice.action == "transfer"
    (resource,) = service.memory.facts_of(StagedFileFact)
    assert resource.users == {"wf1", "wf2"}


# -- "Generate a unique group ID ..." / "Assign the group ID ..." ------------
def test_group_ids_are_unique_and_stable(service):
    first = service.submit_transfers("wf", "j1", [spec("a")])
    second = service.submit_transfers(
        "wf", "j2", [spec("b"), spec("c", src="gsiftp://other/d")]
    )
    pair_groups = {
        (p.src_host, p.dst_host): p.group_id
        for p in service.memory.facts_of(HostPairFact)
    }
    assert len(set(pair_groups.values())) == len(pair_groups)  # unique per pair
    b = next(a for a in second if a.lfn == "b")
    assert b.group_id == first[0].group_id  # same pair -> same stable group


# -- "Assign a default level of parallel streams to a transfer" ---------------
def test_default_streams_only_when_unspecified(service):
    implicit = service.submit_transfers("wf", "j1", [spec("a")])
    explicit = service.submit_transfers("wf", "j2", [spec("b", streams=2)])
    assert implicit[0].streams == 4
    assert explicit[0].streams == 2


# -- "Ensure each transfer has at least one parallel stream assigned" ---------
def test_minimum_one_stream(service):
    advice = service.submit_transfers("wf", "j", [spec("a", streams=0)])
    assert advice[0].streams >= 1


# -- "Remove a transfer that has completed" -----------------------------------
def test_completed_transfer_state_removed_but_location_kept(service):
    advice = service.submit_transfers("wf", "j", [spec("a")])
    service.complete_transfers(done=[advice[0].tid])
    # Detailed transfer state gone...
    assert service.memory.facts_of(TransferFact) == []
    # ...but the staged-file location is retained to prevent restaging.
    resource = service.memory.facts_of(StagedFileFact)[0]
    assert resource.status == "staged"


# -- "Remove a transfer that has failed" ---------------------------------------
def test_failed_transfer_removes_resource_too(service):
    advice = service.submit_transfers("wf", "j", [spec("a")])
    service.complete_transfers(failed=[advice[0].tid])
    assert service.memory.facts_of(TransferFact) == []
    assert service.memory.facts_of(StagedFileFact) == []


def test_failure_of_one_does_not_disturb_others(service):
    a = service.submit_transfers("wf", "j1", [spec("a")])
    b = service.submit_transfers("wf", "j2", [spec("b")])
    service.complete_transfers(failed=[a[0].tid])
    remaining = service.memory.facts_of(TransferFact)
    assert [t.lfn for t in remaining] == ["b"]
    pair = service.memory.facts_of(HostPairFact)[0]
    assert pair.allocated == b[0].streams  # only b's streams still held


# -- "Sort the list of transfers by the source and destination URLs" ----------
def test_response_sorted_by_urls(service):
    advice = service.submit_transfers(
        "wf",
        "j",
        [
            spec("m", src="gsiftp://hostC/d"),
            spec("z", src="gsiftp://hostA/d"),
            spec("a", src="gsiftp://hostB/d"),
        ],
    )
    sources = [a.src_url for a in advice]
    assert sources == sorted(sources)


# -- duplicate handling trio ---------------------------------------------------
def test_duplicate_rules_differentiate_three_cases(service):
    # Case 1: duplicate within one batch -> skip (duplicate).
    batch = service.submit_transfers("wf", "j", [spec("x"), spec("x")])
    assert sorted(a.action for a in batch) == ["skip", "transfer"]
    # Case 2: duplicate of an in-flight transfer -> wait.
    inflight = service.submit_transfers("wf2", "j", [spec("x")])
    assert inflight[0].action == "wait"
    # Case 3: duplicate of a completed (staged) transfer -> skip (staged).
    tid = next(a.tid for a in batch if a.action == "transfer")
    service.complete_transfers(done=[tid])
    staged = service.submit_transfers("wf3", "j", [spec("x")])
    assert staged[0].action == "skip"
    assert "already staged" in staged[0].reason
