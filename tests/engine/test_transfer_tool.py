"""Unit tests for the Pegasus Transfer Tool (policy integration point)."""

import numpy as np
import pytest

from repro.catalogs import ReplicaCatalog
from repro.engine import PegasusTransferTool
from repro.net import GridFTPClient, TransferError
from repro.obs.tracer import Tracer
from repro.planner.executable import ExecutableJob, JobKind, TransferSpec
from repro.policy import InProcessPolicyClient, PolicyConfig, PolicyService


def staging_job(job_id="stage_in_j1", lfns=("a", "b"), nbytes=100.0):
    return ExecutableJob(
        id=job_id,
        kind=JobKind.STAGE_IN,
        site="local",
        transfers=[
            TransferSpec(
                lfn=lfn,
                src_url=f"gsiftp://fg-vm/data/{lfn}",
                dst_url=f"gsiftp://obelix/scratch/{lfn}",
                nbytes=nbytes,
            )
            for lfn in lfns
        ],
    )


def make_policy(env, policy="greedy", default=4, threshold=50, latency=0.0):
    service = PolicyService(
        PolicyConfig(policy=policy, default_streams=default, max_streams=threshold)
    )
    return InProcessPolicyClient(service, env, latency=latency)


def run_job(env, ptt, job, workflow="wf1"):
    result = {}

    def proc():
        result["record"] = yield from ptt.execute(workflow, job)

    p = env.process(proc())
    env.run(until=p)
    return result["record"]


def test_default_mode_executes_all_serially(fabric_env):
    env, fabric, client = fabric_env
    ptt = PegasusTransferTool(client, policy=None, default_streams=4)
    record = run_job(env, ptt, staging_job())
    assert record.executed == 2
    assert record.skipped == 0
    assert record.bytes_moved == pytest.approx(200.0)
    # Serial: two session setups (1s each) + 1s data each at 100 B/s.
    assert env.now == pytest.approx(4.0, rel=0.05)


def test_policy_mode_uses_advised_streams(fabric_env):
    env, fabric, client = fabric_env
    policy = make_policy(env, default=4, threshold=6)
    ptt = PegasusTransferTool(client, policy=policy, default_streams=4)
    record = run_job(env, ptt, staging_job())
    assert record.executed == 2
    assert record.streams_used == [4, 2]  # greedy trimmed the second


def test_policy_mode_groups_share_session(fabric_env):
    env, fabric, client = fabric_env
    policy = make_policy(env)
    ptt = PegasusTransferTool(client, policy=policy, default_streams=4)
    run_job(env, ptt, staging_job())
    # Same host pair: one group; the second transfer skips session setup.
    # Timing: 1s session + 1s data + 0s session + 1s data = 3s.
    assert env.now == pytest.approx(3.0, rel=0.05)


def test_policy_mode_reports_completions(fabric_env):
    env, fabric, client = fabric_env
    policy = make_policy(env)
    ptt = PegasusTransferTool(client, policy=policy, default_streams=4)
    run_job(env, ptt, staging_job())
    snap = policy.service.snapshot()
    assert snap["memory"].get("TransferFact") is None  # all completed/removed
    assert snap["host_pairs"]["fg-vm->obelix"]["allocated"] == 0


def test_duplicate_across_jobs_skipped(fabric_env):
    env, fabric, client = fabric_env
    policy = make_policy(env)
    ptt = PegasusTransferTool(client, policy=policy, default_streams=4)
    run_job(env, ptt, staging_job("j1", lfns=("shared",)))
    record = run_job(env, ptt, staging_job("j2", lfns=("shared",)), workflow="wf2")
    assert record.executed == 0
    assert record.skipped == 1


def test_concurrent_duplicate_waits_for_inflight(fabric_env):
    env, fabric, client = fabric_env
    policy = make_policy(env)
    ptt = PegasusTransferTool(client, policy=policy, default_streams=4, poll_interval=0.5)
    records = {}

    def first():
        records["a"] = yield from ptt.execute("wf1", staging_job("j1", lfns=("big",), nbytes=1000.0))

    def second():
        yield env.timeout(1.5)  # first transfer in flight
        records["b"] = yield from ptt.execute("wf2", staging_job("j2", lfns=("big",), nbytes=1000.0))

    env.process(first())
    env.process(second())
    env.run()
    assert records["a"].executed == 1
    assert records["b"].executed == 0
    assert records["b"].waited == 1
    # The waiter finished no earlier than the original transfer.
    assert records["b"].t_end >= records["a"].t_end
    assert fabric.bytes_moved == pytest.approx(1000.0)  # staged only once


def test_wait_past_max_wait_closes_its_span_as_timeout(fabric_env):
    """The max-wait TransferError used to leave the ``wait:`` span open."""
    env, fabric, client = fabric_env
    env.tracer = tracer = Tracer(clock=lambda: env.now)
    policy = make_policy(env)
    ptt = PegasusTransferTool(
        client, policy=policy, default_streams=4, poll_interval=0.5, max_wait=2.0
    )

    def first():
        yield from ptt.execute("wf1", staging_job("j1", lfns=("big",), nbytes=1000.0))

    def second():
        yield env.timeout(1.5)  # first transfer in flight for another ~10 s
        with pytest.raises(TransferError, match="timed out"):
            yield from ptt.execute("wf2", staging_job("j2", lfns=("big",), nbytes=1000.0))

    env.process(first())
    env.process(second())
    env.run()
    waits = [s for s in tracer.spans() if s["name"] == "wait:big"]
    assert [(s["ts"], s["dur"], s["args"]["outcome"]) for s in waits] == [(1.5, 2.0, "timeout")]


def test_failure_reports_and_raises(fabric_env):
    env, fabric, client = fabric_env
    failing = GridFTPClient(fabric, rng=np.random.default_rng(3), failure_rate=0.999)
    policy = make_policy(env)
    ptt = PegasusTransferTool(failing, policy=policy, default_streams=4)

    def proc():
        yield from ptt.execute("wf1", staging_job())

    p = env.process(proc())
    with pytest.raises(TransferError):
        env.run(until=p)
    # Streams were released for the failed and abandoned transfers.
    snap = policy.service.snapshot()
    assert snap["host_pairs"]["fg-vm->obelix"]["allocated"] == 0


def test_retry_after_failure_can_restage(fabric_env):
    env, fabric, client = fabric_env
    policy = make_policy(env)
    # First attempt fails, second succeeds (failure_rate hits once).
    flaky = GridFTPClient(fabric, rng=np.random.default_rng(12), failure_rate=0.5)
    ptt = PegasusTransferTool(flaky, policy=policy, default_streams=4)
    attempts = {"n": 0}
    record = {}

    def proc():
        while True:
            attempts["n"] += 1
            try:
                record["r"] = yield from ptt.execute("wf1", staging_job("j1", lfns=("x",)))
                return
            except TransferError:
                continue

    p = env.process(proc())
    env.run(until=p)
    assert record["r"].executed == 1
    assert attempts["n"] >= 1


def test_replica_registration(fabric_env):
    env, fabric, client = fabric_env
    rc = ReplicaCatalog()
    ptt = PegasusTransferTool(
        client, policy=None, replicas=rc, host_site={"obelix": "local-site"}
    )
    run_job(env, ptt, staging_job())
    assert rc.has("a", site="local-site")
    assert rc.has("b", site="local-site")


def test_policy_latency_charged(fabric_env):
    env, fabric, client = fabric_env
    policy = make_policy(env, latency=0.5)
    ptt = PegasusTransferTool(client, policy=policy, default_streams=4)
    run_job(env, ptt, staging_job(lfns=("a",)))
    # submit + one completion = 2 calls x 0.5s on top of 1s setup + 1s data.
    assert env.now == pytest.approx(3.0, rel=0.05)
    assert policy.calls == 2
    assert policy.time_in_calls == pytest.approx(1.0)


def test_validation(fabric_env):
    env, fabric, client = fabric_env
    with pytest.raises(ValueError):
        PegasusTransferTool(client, default_streams=0)
    with pytest.raises(ValueError):
        PegasusTransferTool(client, poll_interval=0)


class _StubPolicy:
    """Minimal policy client: acknowledges completions, no advice."""

    def complete_transfers(self, done=(), failed=()):
        yield from ()
        return {"acknowledged": len(list(done)) + len(list(failed))}


def _advice(tid, lfn, group_id, streams=1, nbytes=100.0):
    from repro.policy.model import TransferAdvice

    return TransferAdvice(
        tid=tid,
        lfn=lfn,
        src_url=f"gsiftp://fg-vm/data/{lfn}",
        dst_url=f"gsiftp://obelix/scratch/{lfn}",
        nbytes=nbytes,
        action="transfer",
        streams=streams,
        group_id=group_id,
    )


def _run_items(env, ptt, items):
    from repro.engine.transfer_tool import StagingRecord

    record = StagingRecord(job_id="j", t_start=env.now)

    def proc():
        yield from ptt._run_approved(items, record)

    p = env.process(proc())
    env.run(until=p)
    return record


def test_grouped_items_share_one_session(fabric_env):
    env, fabric, client = fabric_env
    ptt = PegasusTransferTool(client, policy=_StubPolicy(), default_streams=1)
    _run_items(env, ptt, [_advice(1, "a", group_id=7), _advice(2, "b", group_id=7)])
    # One session setup (1s) + 1s data, then reuse: 0s setup + 1s data.
    assert env.now == pytest.approx(3.0, rel=0.05)


def test_group_zero_never_reuses_a_session(fabric_env):
    # group_id == 0 is the "ungrouped" fallback, not a real group:
    # consecutive 0s must each pay control-channel setup.
    env, fabric, client = fabric_env
    ptt = PegasusTransferTool(client, policy=_StubPolicy(), default_streams=1)
    _run_items(env, ptt, [_advice(1, "a", group_id=0), _advice(2, "b", group_id=0)])
    # Two full session setups: (1+1) + (1+1) = 4s.
    assert env.now == pytest.approx(4.0, rel=0.05)


def test_eviction_victims_are_applied_to_replicas_and_storage(fabric_env):
    """When a completion report returns eviction victims, the tool drops
    them from its replica view and scratch accounting — the simulation
    analogue of actually deleting the file."""
    from repro.datacatalog.model import CatalogConfig
    from repro.engine.storage import StorageTracker

    env, fabric, client = fabric_env
    service = PolicyService(
        PolicyConfig(
            policy="greedy",
            default_streams=4,
            max_streams=50,
            catalog=CatalogConfig(
                site_capacity={"local": 150.0},
                host_site={"obelix": "local"},
            ),
        ),
        clock=lambda: env.now,
    )
    policy = InProcessPolicyClient(service, env)
    rc = ReplicaCatalog()
    storage = StorageTracker(env, "local")
    ptt = PegasusTransferTool(
        client,
        policy=policy,
        replicas=rc,
        host_site={"obelix": "local"},
        storage=storage,
    )

    run_job(env, ptt, staging_job("si1", lfns=("a",)), workflow="wf1")
    assert rc.has("a", site="local")
    assert storage.used == pytest.approx(100.0)

    def release():
        yield from policy.unregister_workflow("wf1")

    p = env.process(release())
    env.run(until=p)

    # wf2's stage-in overflows the 150-byte budget: 'a' is evicted and
    # the tool applies the victim to both catalog and scratch.
    run_job(env, ptt, staging_job("si2", lfns=("b",)), workflow="wf2")
    assert ptt.evicted_log == [("a", "gsiftp://obelix/scratch/a")]
    assert not rc.has("a")
    assert rc.has("b", site="local")
    assert storage.used == pytest.approx(100.0)  # b only
