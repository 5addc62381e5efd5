"""Network-versus-reference equivalence and long-lived-service memory tests.

A service on the join network must give **byte-identical** advice to a
service on the full-rescan reference session (``tests/reference.py``)
for the same request stream.  The Montage scenario mirrors the paper's
workload: per-job stage-in batches with cross-workflow duplicates,
completions and cleanups interleaved; the access and fairshare variants
layer host denials and tenant budgets on top.
"""

import json

import pytest

from repro.policy import PolicyConfig, PolicyJournal, PolicyService
from repro.policy.model import HostPairFact, StagedFileFact, TransferFact
from repro.workflow.montage import MontageConfig, montage_workflow

from tests.policy.conftest import spec
from tests.conftest import both_engines
from tests.reference import reference_engine


# ------------------------------------------------------------- workload
def montage_batches(max_jobs=40):
    """Per-job stage-in batches derived from the Montage DAG."""
    wf = montage_workflow(MontageConfig(n_images=12))
    batches = []
    for job in list(wf.jobs.values())[:max_jobs]:
        items = [
            {
                "lfn": f.lfn,
                "src_url": f"gsiftp://fg-vm/data/{f.lfn}",
                "dst_url": f"gsiftp://obelix/scratch/{f.lfn}",
                "nbytes": float(f.size or 1000.0),
            }
            for f in job.inputs
        ]
        if items:
            batches.append((job.id, items))
    return batches


def drive(service, mid_hook=None):
    """Run the Montage scenario against a service; return the advice log.

    ``mid_hook`` runs between the two workflows so scenario variants can
    flip service state (deny a host, rebind tenants) mid-stream.
    """
    log = []
    in_flight = []
    for n, (workflow, mult) in enumerate([("wfA", 1), ("wfB", 2)]):
        if n == 1 and mid_hook is not None:
            mid_hook(service)
        for i, (job, items) in enumerate(montage_batches()):
            advice = service.submit_transfers(workflow, job, items)
            log.append([a.to_dict() for a in advice])
            in_flight.extend(
                a.tid for a in advice if a.action == "transfer"
            )
            # Complete in waves so allocations free up mid-run; leave a
            # tail in flight to exercise the shared-staging "wait" path.
            if i % mult == 0 and in_flight:
                half = len(in_flight) // 2 or 1
                done, in_flight = in_flight[:half], in_flight[half:]
                log.append(service.complete_transfers(done=done))
        log.append(service.complete_transfers(done=in_flight))
        in_flight = []
        cleanups = service.submit_cleanups(
            workflow,
            "clean",
            [(f"{n}-unused", f"gsiftp://obelix/scratch/{n}-unused")],
        )
        log.append([c.to_dict() for c in cleanups])
        service.unregister_workflow(workflow)
    log.append(service.snapshot()["memory"])
    return log


def make_service(policy="greedy", **kw):
    cfg = dict(policy=policy, default_streams=4, max_streams=12)
    cfg.update(kw)
    return PolicyService(PolicyConfig(**cfg))


def _fairshare_setup(service):
    service.register_tenant("acme", weight=2, max_streams=20)
    service.register_tenant("beta", weight=1, max_streams=8)
    service.bind_workflow("wfA", "acme")
    service.bind_workflow("wfB", "beta")


def _deny_mid_run(service):
    # wfA staged normally; every wfB transfer now hits a denied source.
    service.deny_host("fg-vm", direction="src", reason="maintenance window")


_PACKS = [
    pytest.param({"policy": "greedy"}, None, None, id="greedy"),
    pytest.param({"policy": "fifo"}, None, None, id="fifo"),
    pytest.param({"policy": "balanced", "cluster_count": 3}, None, None,
                 id="balanced"),
    pytest.param({"policy": "greedy", "order_by": "priority"}, None, None,
                 id="priority"),
    pytest.param({"policy": "greedy", "access_control": True}, None,
                 _deny_mid_run, id="access"),
    pytest.param({"policy": "greedy"}, _fairshare_setup, None, id="fairshare"),
]


@pytest.mark.parametrize("policy_kw, setup, mid_hook", _PACKS)
def test_montage_advice_byte_identical_across_engines(policy_kw, setup, mid_hook):
    def run():
        service = make_service(**policy_kw)
        if setup is not None:
            setup(service)
        return json.dumps(drive(service, mid_hook=mid_hook), sort_keys=True)

    with reference_engine():
        expected = run()
    assert run() == expected


@both_engines
def test_crash_recovery_replay_byte_identical(tmp_path, engine):
    """A recovered service must replay to the same advice as an uncrashed
    twin — on the join network and on the reference session."""
    cfg = dict(policy="greedy", default_streams=4, max_streams=12)
    batches = montage_batches(max_jobs=12)

    def build(path):
        return PolicyService(PolicyConfig(**cfg), journal=PolicyJournal(path))

    journaled = build(tmp_path / "j")
    for job, items in batches[:6]:
        journaled.submit_transfers("wfA", job, items)
    del journaled  # crash: only the journal directory survives

    recovered = PolicyService.recover(tmp_path / "j", config=PolicyConfig(**cfg))
    twin = build(tmp_path / "twin")
    for job, items in batches[:6]:
        twin.submit_transfers("wfA", job, items)

    tails = []
    for svc in (recovered, twin):
        log = [
            [a.to_dict() for a in svc.submit_transfers("wfB", job, items)]
            for job, items in batches[6:]
        ]
        log.append(svc.snapshot()["memory"])
        tails.append(log)
    assert json.dumps(tails[0], sort_keys=True) == json.dumps(tails[1], sort_keys=True)


# ------------------------------------------------------- bounded memory
def test_hundred_workflow_lifetimes_leave_no_residue():
    service = PolicyService(
        PolicyConfig(policy="greedy", default_streams=4, max_streams=50,
                     completed_tid_retention=100)
    )
    censuses = []
    for life in range(100):
        wf = f"wf{life}"
        advice = service.submit_transfers(
            wf, "stage", [spec(f"{wf}-f{i}") for i in range(5)]
        )
        tids = [a.tid for a in advice if a.action == "transfer"]
        service.complete_transfers(done=tids[:-1], failed=tids[-1:])
        service.unregister_workflow(wf)
        census = service.snapshot()["memory"]
        censuses.append(
            (census.get("StagedFileFact", 0), census.get("TransferFact", 0))
        )
    # No growth: every lifetime ends with the same (empty) census.
    assert set(censuses) == {(0, 0)}
    assert len(service._done_tids) <= 100
    assert len(service._failed_tids) <= 100


@pytest.mark.parametrize("retain", [False, True], ids=["drop", "retain"])
@pytest.mark.parametrize("policy_kw", [
    pytest.param({"policy": "greedy"}, id="greedy"),
    pytest.param({"policy": "balanced", "cluster_count": 3}, id="balanced"),
])
def test_repeated_lifetimes_leave_no_allocation_residue(policy_kw, retain):
    """Regression: idle ``HostPairFact`` / ``ClusterAllocationFact``
    records used to survive ``unregister_workflow`` forever (one per host
    pair), growing working memory in a long-lived service."""
    service = make_service(**policy_kw)
    for life in range(25):
        wf = f"wf{life}"
        lfn = "shared" if retain else wf
        advice = service.submit_transfers(
            wf, "stage",
            [dict(spec(f"{lfn}-f{i}"), cluster=i % 3) for i in range(3)],
        )
        service.complete_transfers(
            done=[a.tid for a in advice if a.action == "transfer"]
        )
        service.unregister_workflow(wf, retain_staged=retain)
        census = service.snapshot()["memory"]
        assert "HostPairFact" not in census
        assert "ClusterAllocationFact" not in census
        assert "TransferFact" not in census
        if not retain:
            assert "StagedFileFact" not in census
    if retain:
        # The retained files are the *only* thing the service remembers.
        assert set(service.snapshot()["memory"]) == {"StagedFileFact"}


def test_unregister_retracts_orphaned_staged_files(greedy_service):
    service = greedy_service
    advice = service.submit_transfers("wf1", "j1", [spec("a"), spec("b")])
    service.complete_transfers(done=[a.tid for a in advice])
    assert len(service.memory.facts_of(StagedFileFact)) == 2
    service.unregister_workflow("wf1")
    assert service.memory.facts_of(StagedFileFact) == []


def test_unregister_keeps_files_with_remaining_users(greedy_service):
    service = greedy_service
    a1 = service.submit_transfers("wf1", "j1", [spec("a")])
    service.complete_transfers(done=[a1[0].tid])
    # wf2 shares the staged file (skip advice attaches it as a user).
    again = service.submit_transfers("wf2", "j1", [spec("a")])
    assert again[0].action == "skip"
    service.unregister_workflow("wf1")
    [fact] = service.memory.facts_of(StagedFileFact)
    assert fact.users == {"wf2"}
    service.unregister_workflow("wf2")
    assert service.memory.facts_of(StagedFileFact) == []


def test_unregister_retain_staged_keeps_orphans(greedy_service):
    service = greedy_service
    advice = service.submit_transfers("wf1", "j1", [spec("a")])
    service.complete_transfers(done=[advice[0].tid])
    service.unregister_workflow("wf1", retain_staged=True)
    [fact] = service.memory.facts_of(StagedFileFact)
    assert fact.users == set()
    # A later workflow can still share the retained file.
    again = service.submit_transfers("wf2", "j1", [spec("a")])
    assert again[0].action == "skip"


def test_completed_tid_retention_is_bounded_and_fifo():
    service = PolicyService(
        PolicyConfig(policy="fifo", completed_tid_retention=3)
    )
    tids = []
    for i in range(6):
        advice = service.submit_transfers("wf", "j", [spec(f"f{i}")])
        tids.append(advice[0].tid)
        service.complete_transfers(done=[advice[0].tid])
    # Only the 3 most recent completions are remembered.
    assert [service.transfer_state(t) for t in tids[:3]] == ["unknown"] * 3
    assert [service.transfer_state(t) for t in tids[3:]] == ["done"] * 3
    assert service.memory.facts_of(TransferFact) == []
