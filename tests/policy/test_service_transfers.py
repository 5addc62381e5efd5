"""Tests of the policy service's transfer handling (Table I + Table II)."""

from repro.policy import PolicyConfig, PolicyService
from repro.policy.model import HostPairFact, StagedFileFact, TransferFact

from tests.conftest import counter
from tests.policy.conftest import spec


def executable(advice):
    return [a for a in advice if a.action == "transfer"]


# ------------------------------------------------------------ basic flow
def test_simple_batch_approved_with_default_streams(greedy_service):
    advice = greedy_service.submit_transfers("wf1", "job1", [spec("a"), spec("b")])
    execute = executable(advice)
    assert len(execute) == 2
    assert all(a.streams == 4 for a in execute)  # default_streams
    assert all(a.group_id == execute[0].group_id for a in execute)  # same host pair


def test_explicit_streams_respected_below_threshold(greedy_service):
    advice = greedy_service.submit_transfers("wf", "j", [spec("a", streams=7)])
    assert advice[0].streams == 7


def test_group_ids_distinct_per_host_pair(greedy_service):
    advice = greedy_service.submit_transfers(
        "wf", "j",
        [
            spec("a", src="gsiftp://s1/d"),
            spec("b", src="gsiftp://s2/d"),
            spec("c", src="gsiftp://s1/d"),
        ],
    )
    groups = {a.lfn: a.group_id for a in advice}
    assert groups["a"] == groups["c"] != groups["b"]


def test_advice_sorted_by_urls(greedy_service):
    advice = greedy_service.submit_transfers(
        "wf", "j",
        [spec("zz", src="gsiftp://s2/d"), spec("aa", src="gsiftp://s1/d")],
    )
    assert [a.lfn for a in advice] == ["aa", "zz"]


def test_zero_stream_request_bumped_to_one():
    # Controller rejects streams < 1, but the service rule guards it too.
    service = PolicyService(PolicyConfig(policy="greedy"))
    advice = service.submit_transfers("wf", "j", [spec("a", streams=0)])
    assert advice[0].streams >= 1


# --------------------------------------------------------- de-duplication
def test_duplicate_within_batch_skipped(greedy_service):
    advice = greedy_service.submit_transfers("wf", "j", [spec("a"), spec("a")])
    actions = sorted(a.action for a in advice)
    assert actions == ["skip", "transfer"]
    skip = next(a for a in advice if a.action == "skip")
    assert "duplicate" in skip.reason


def test_same_lfn_different_destination_not_duplicate(greedy_service):
    advice = greedy_service.submit_transfers(
        "wf", "j", [spec("a"), spec("a", dst="gsiftp://other/scratch")]
    )
    assert [a.action for a in advice] == ["transfer", "transfer"]


def test_already_staged_file_skipped_across_workflows(greedy_service):
    first = greedy_service.submit_transfers("wf1", "j1", [spec("shared")])
    greedy_service.complete_transfers(done=[first[0].tid])
    second = greedy_service.submit_transfers("wf2", "j2", [spec("shared")])
    assert second[0].action == "skip"
    assert "already staged" in second[0].reason
    # Both workflows are now users of the staged file.
    resource = greedy_service.memory.facts_of(StagedFileFact)[0]
    assert resource.users == {"wf1", "wf2"}


def test_in_flight_transfer_causes_wait(greedy_service):
    first = greedy_service.submit_transfers("wf1", "j1", [spec("big")])
    assert first[0].action == "transfer"
    second = greedy_service.submit_transfers("wf2", "j2", [spec("big")])
    assert second[0].action == "wait"
    assert second[0].wait_for == first[0].tid
    # The waiting workflow was registered as a user of the file.
    resource = greedy_service.memory.facts_of(StagedFileFact)[0]
    assert resource.users == {"wf1", "wf2"}


def test_wait_then_staged_visible_via_query(greedy_service):
    first = greedy_service.submit_transfers("wf1", "j1", [spec("big")])
    dst = first[0].dst_url
    assert greedy_service.staging_state("big", dst) == "staging"
    greedy_service.complete_transfers(done=[first[0].tid])
    assert greedy_service.staging_state("big", dst) == "staged"
    assert greedy_service.staging_state("other", dst) == "unknown"


def test_failed_transfer_allows_restaging(greedy_service):
    first = greedy_service.submit_transfers("wf1", "j1", [spec("flaky")])
    greedy_service.complete_transfers(failed=[first[0].tid])
    # Resource removed; a retry is approved as a fresh transfer.
    retry = greedy_service.submit_transfers("wf1", "j1-retry", [spec("flaky")])
    assert retry[0].action == "transfer"


def test_transfer_state_lifecycle(greedy_service):
    advice = greedy_service.submit_transfers("wf", "j", [spec("a")])
    tid = advice[0].tid
    assert greedy_service.transfer_state(tid) == "in_progress"
    greedy_service.complete_transfers(done=[tid])
    assert greedy_service.transfer_state(tid) == "done"
    assert greedy_service.transfer_state(99999) == "unknown"


def test_complete_unknown_ids_ignored(greedy_service):
    assert greedy_service.complete_transfers(done=[12345])["acknowledged"] == 0


# ------------------------------------------------------ greedy allocation
def test_greedy_allocates_until_threshold():
    service = PolicyService(PolicyConfig(policy="greedy", default_streams=8, max_streams=50))
    grants = []
    for i in range(20):
        advice = service.submit_transfers("wf", f"job{i}", [spec(f"f{i}")])
        grants.append(advice[0].streams)
    # Paper Table IV narrative: 6 full grants of 8, one grant of 2, rest 1.
    assert grants == [8] * 6 + [2] + [1] * 13
    assert sum(grants) == 63


def test_greedy_threshold_100_default_6():
    service = PolicyService(PolicyConfig(policy="greedy", default_streams=6, max_streams=100))
    grants = [
        service.submit_transfers("wf", f"j{i}", [spec(f"f{i}")])[0].streams
        for i in range(20)
    ]
    assert sum(grants) == 103  # Table IV


def test_completion_frees_streams_for_new_transfers():
    service = PolicyService(PolicyConfig(policy="greedy", default_streams=8, max_streams=16))
    a = service.submit_transfers("wf", "j1", [spec("a")])[0]
    b = service.submit_transfers("wf", "j2", [spec("b")])[0]
    assert (a.streams, b.streams) == (8, 8)
    c = service.submit_transfers("wf", "j3", [spec("c")])[0]
    assert c.streams == 1  # threshold reached
    service.complete_transfers(done=[a.tid])
    # a's 8 streams freed: allocation is 8 (b) + 1 (c) = 9; a new request
    # for 8 is trimmed to the 7 streams left under the threshold of 16.
    d = service.submit_transfers("wf", "j4", [spec("d")])[0]
    assert d.streams == 7
    pair = service.memory.facts_of(HostPairFact)[0]
    assert pair.allocated == 16


def test_greedy_per_pair_thresholds_independent():
    service = PolicyService(PolicyConfig(policy="greedy", default_streams=8, max_streams=8))
    a = service.submit_transfers("wf", "j1", [spec("a", src="gsiftp://s1/d")])[0]
    b = service.submit_transfers("wf", "j2", [spec("b", src="gsiftp://s2/d")])[0]
    assert a.streams == b.streams == 8  # separate pairs, separate budgets


def test_pair_threshold_override():
    service = PolicyService(
        PolicyConfig(
            policy="greedy",
            default_streams=8,
            max_streams=50,
            pair_thresholds={("fg-vm", "obelix"): 4},
        )
    )
    advice = service.submit_transfers("wf", "j", [spec("a")])
    assert advice[0].streams == 4  # trimmed to the pair's own threshold


def test_fifo_policy_no_stream_cap():
    service = PolicyService(PolicyConfig(policy="fifo", default_streams=9))
    grants = [
        service.submit_transfers("wf", f"j{i}", [spec(f"f{i}")])[0].streams
        for i in range(10)
    ]
    assert grants == [9] * 10  # no threshold enforcement


def test_memory_persists_across_batches(greedy_service):
    greedy_service.submit_transfers("wf", "j1", [spec("a")])
    greedy_service.submit_transfers("wf", "j2", [spec("b")])
    in_progress = [
        t for t in greedy_service.memory.facts_of(TransferFact)
        if t.status == "in_progress"
    ]
    assert len(in_progress) == 2


def test_stats_counters(greedy_service):
    greedy_service.submit_transfers("wf", "j", [spec("a"), spec("a")])
    snap = greedy_service.snapshot()
    assert counter(greedy_service, "repro_policy_transfers_total", event="submitted") == 2
    assert counter(greedy_service, "repro_policy_transfers_total", event="approved") == 1
    assert counter(greedy_service, "repro_policy_transfers_total", event="skipped") == 1
    assert snap["policy"] == "greedy"
    assert snap["memory"]["TransferFact"] == 1


def test_batch_allocation_reserves_for_whole_list():
    """The service allocates streams for every transfer of a batch at
    advice time (the PTT executes the list serially and reports
    completions afterwards — the paper's protocol).  Wide batches
    therefore reserve far more streams than are concurrently active,
    which is why the paper's evaluation ran with clustering disabled
    (see EXPERIMENTS.md, ablation A1)."""
    service = PolicyService(PolicyConfig(policy="greedy", default_streams=4, max_streams=50))
    advice = service.submit_transfers(
        "wf", "clustered_job", [spec(f"f{i}") for i in range(13)]
    )
    grants = [a.streams for a in advice]
    assert sum(grants) == 4 * 12 + 2  # 48 full + one trimmed to the threshold
    pair = service.memory.facts_of(HostPairFact)[0]
    assert pair.allocated == 50  # the whole batch is reserved immediately
    # A second clustered job arriving now is starved to single streams.
    late = service.submit_transfers("wf", "other_cluster", [spec("g0"), spec("g1")])
    assert [a.streams for a in late] == [1, 1]


def test_advice_ordering_ranks_deny_last():
    service = PolicyService(
        PolicyConfig(policy="greedy", default_streams=4, max_streams=50,
                     access_control=True)
    )
    service.deny_host("banned-host", direction="src")
    advice = service.submit_transfers(
        "wf", "j",
        [
            spec("ok"),
            spec("nope", src="gsiftp://banned-host/d"),
            spec("dup"),
            spec("dup"),
        ],
    )
    actions = [a.action for a in advice]
    # transfer(s) first, skips before denials at the tail.
    assert actions == ["transfer", "transfer", "skip", "deny"]


def test_snapshot_host_pairs_reflect_live_allocation():
    service = PolicyService(PolicyConfig(policy="greedy", default_streams=6, max_streams=50))
    service.submit_transfers("wf", "j", [spec("a"), spec("b")])
    snap = service.snapshot()
    pair = snap["host_pairs"]["fg-vm->obelix"]
    assert pair["allocated"] == 12
    assert pair["threshold"] == 50
    assert pair["group_id"] >= 1
