"""Durable policy memory: journal replay and snapshot recovery.

The central guarantee: a service recovered from its journal gives
**byte-identical advice** to one that never crashed — across allocation
policies, on the join network and on the reference session, and at any
crash point in a call trace.
"""

import json

import pytest

from repro.policy import PolicyConfig, PolicyJournal, PolicyService
from repro.policy.journal import JournalError

from tests.policy.conftest import spec
from tests.conftest import both_engines
from tests.reference import reference_engine


def greedy_config():
    return PolicyConfig(policy="greedy", default_streams=4, max_streams=8)


def balanced_config():
    return PolicyConfig(
        policy="balanced", default_streams=4, max_streams=8, cluster_count=2
    )


# A trace with every interesting shape: grants, in-batch and cross-workflow
# duplicates (skip/wait), threshold-limited allocation, failures, cleanups,
# and a workflow departure.
def trace():
    return [
        ("submit_transfers", ("wf1", "job1", [spec("a"), spec("b"), spec("a")])),
        ("complete_transfers", {"done": [1]}),
        ("submit_transfers", ("wf2", "job2", [spec("a"), spec("c"), spec("d")])),
        ("complete_transfers", {"done": [2], "failed": [5]}),
        ("submit_transfers", ("wf2", "job3", [spec("d"), spec("e")])),
        ("complete_transfers", {"done": [6, 7, 8]}),
        ("submit_cleanups", ("wf1", "clean1", [("a", "gsiftp://obelix/scratch/a")])),
        ("complete_cleanups", ([1],)),
        ("unregister_workflow", ("wf1",)),
        ("submit_transfers", ("wf3", "job4", [spec("c"), spec("f")])),
    ]


def apply_op(service, op):
    """Run one trace step; return its response as a canonical JSON string."""
    name, args = op
    method = getattr(service, name)
    if isinstance(args, dict):
        result = method(**args)
    else:
        result = method(*args)
    if isinstance(result, list):  # advice lists
        return json.dumps([a.to_dict() for a in result], sort_keys=True)
    return json.dumps(result, sort_keys=True)


@pytest.mark.parametrize("config_fn", [greedy_config, balanced_config])
@both_engines
@pytest.mark.parametrize("crash_at", [1, 3, 5, 8])
def test_recovered_advice_byte_identical(tmp_path, config_fn, engine, crash_at):
    ops = trace()
    reference = PolicyService(config_fn())
    expected = [apply_op(reference, op) for op in ops]

    journaled = PolicyService(config_fn(), journal=PolicyJournal(tmp_path / "j"))
    before = [apply_op(journaled, op) for op in ops[:crash_at]]
    assert before == expected[:crash_at]

    del journaled  # crash: only the journal directory survives
    recovered = PolicyService.recover(tmp_path / "j", config=config_fn())
    after = [apply_op(recovered, op) for op in ops[crash_at:]]
    assert after == expected[crash_at:]


def test_recovery_across_engines(tmp_path):
    """A journal written on the join network restores on the reference
    session with identical advice: nothing of the matcher is journaled."""
    ops = trace()
    journaled = PolicyService(greedy_config(), journal=PolicyJournal(tmp_path / "j"))
    for op in ops[:4]:
        apply_op(journaled, op)
    with reference_engine():
        reference = PolicyService(greedy_config())
        expected = [apply_op(reference, op) for op in ops]
        recovered = PolicyService.recover(tmp_path / "j", config=greedy_config())
        after = [apply_op(recovered, op) for op in ops[4:]]
    assert after == expected[4:]


@pytest.mark.parametrize("snapshot_interval", [1, 3])
def test_snapshot_compaction_preserves_advice(tmp_path, snapshot_interval):
    ops = trace()
    reference = PolicyService(greedy_config())
    expected = [apply_op(reference, op) for op in ops]

    journal = PolicyJournal(tmp_path / "j", snapshot_interval=snapshot_interval)
    journaled = PolicyService(greedy_config(), journal=journal)
    for op in ops[:6]:
        apply_op(journaled, op)
    assert journal.snapshots >= 2  # initial + at least one compaction

    recovered = PolicyService.recover(
        tmp_path / "j", config=greedy_config(), snapshot_interval=snapshot_interval
    )
    after = [apply_op(recovered, op) for op in ops[6:]]
    assert after == expected[6:]


def test_torn_tail_is_discarded(tmp_path):
    journal = PolicyJournal(tmp_path / "j")
    service = PolicyService(greedy_config(), journal=journal)
    apply_op(service, ("submit_transfers", ("wf1", "j1", [spec("a")])))
    journal.close()

    # A crash mid-write leaves a torn, uncommitted tail.
    with open(journal.journal_path, "a", encoding="utf-8") as fh:
        fh.write('{"op": "i", "fid": 99, "fact": {"type": "TransferF')

    recovered = PolicyService.recover(tmp_path / "j", config=greedy_config())
    assert recovered.transfer_state(1) == "in_progress"
    assert recovered.counters()["tid"] == 1


def test_uncommitted_mutations_are_discarded(tmp_path):
    journal = PolicyJournal(tmp_path / "j")
    service = PolicyService(greedy_config(), journal=journal)
    apply_op(service, ("submit_transfers", ("wf1", "j1", [spec("a")])))
    journal.close()

    # Complete mutation records with no commit: the client never got a
    # response for that call, so replay must not apply them.
    with open(journal.journal_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"op": "r", "fid": 0}) + "\n")

    recovered = PolicyService.recover(tmp_path / "j", config=greedy_config())
    assert recovered.transfer_state(1) == "in_progress"


def test_fingerprint_mismatch_is_rejected(tmp_path):
    service = PolicyService(greedy_config(), journal=PolicyJournal(tmp_path / "j"))
    apply_op(service, ("submit_transfers", ("wf1", "j1", [spec("a")])))
    with pytest.raises(JournalError, match="different"):
        PolicyService.recover(
            tmp_path / "j",
            config=PolicyConfig(policy="greedy", default_streams=4, max_streams=99),
        )


def test_fresh_constructor_refuses_used_journal(tmp_path):
    service = PolicyService(greedy_config(), journal=PolicyJournal(tmp_path / "j"))
    apply_op(service, ("submit_transfers", ("wf1", "j1", [spec("a")])))
    with pytest.raises(JournalError, match="recover"):
        PolicyService(greedy_config(), journal=PolicyJournal(tmp_path / "j"))


def test_queries_write_nothing(tmp_path):
    journal = PolicyJournal(tmp_path / "j")
    service = PolicyService(greedy_config(), journal=journal)
    commits = journal.commits
    service.transfer_state(1)
    service.staging_state("a", "gsiftp://obelix/scratch/a")
    assert journal.commits == commits


def test_failed_call_leaves_no_journal_residue(tmp_path):
    journal = PolicyJournal(tmp_path / "j")
    service = PolicyService(greedy_config(), journal=journal)
    with pytest.raises(Exception):
        service.submit_transfers("wf1", "j1", [{"lfn": "a"}])  # missing urls
    assert journal._pending == []
    # The aborted call burned tid 1; the next grant is tid 2 and the
    # counter state must survive recovery.
    advice = service.submit_transfers("wf1", "j1", [spec("a")])
    assert advice[0].tid == 2
    recovered = PolicyService.recover(tmp_path / "j", config=greedy_config())
    assert recovered.transfer_state(2) == "in_progress"
    assert recovered.counters()["tid"] == 2


def test_done_and_failed_retention_recovered(tmp_path):
    journal = PolicyJournal(tmp_path / "j")
    service = PolicyService(greedy_config(), journal=journal)
    service.submit_transfers("wf1", "j1", [spec("a"), spec("b")])
    service.complete_transfers(done=[1], failed=[2])
    recovered = PolicyService.recover(tmp_path / "j", config=greedy_config())
    assert recovered.transfer_state(1) == "done"
    assert recovered.transfer_state(2) == "failed"
    assert recovered.transfer_state(3) == "unknown"
