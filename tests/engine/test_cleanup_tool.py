"""Unit tests for the cleanup tool."""

import pytest

from repro.catalogs import ReplicaCatalog
from repro.des import Environment
from repro.engine import CleanupTool
from repro.planner.executable import ExecutableJob, JobKind
from repro.policy import InProcessPolicyClient, PolicyConfig, PolicyService


def cleanup_job(job_id="cleanup_f", files=(("f", "gsiftp://obelix/scratch/f"),)):
    return ExecutableJob(
        id=job_id, kind=JobKind.CLEANUP, site="isi", cleanup_files=list(files)
    )


def run(env, tool, job, workflow="wf1"):
    out = {}

    def proc():
        out["r"] = yield from tool.execute(workflow, job)

    p = env.process(proc())
    env.run(until=p)
    return out["r"]


def test_without_policy_deletes_everything():
    env = Environment()
    tool = CleanupTool(env, per_file_latency=0.1)
    record = run(
        env, tool,
        cleanup_job(files=[("a", "gsiftp://h/a"), ("b", "gsiftp://h/b")]),
    )
    assert record.deleted == 2
    assert env.now == pytest.approx(0.2)


def test_policy_protects_shared_file():
    env = Environment()
    service = PolicyService(PolicyConfig(policy="greedy"))
    client = InProcessPolicyClient(service, env, latency=0.0)
    # Stage a file used by two workflows.
    advice = service.submit_transfers(
        "wf1", "j",
        [{"lfn": "f", "src_url": "gsiftp://s/f", "dst_url": "gsiftp://obelix/scratch/f",
          "nbytes": 1}],
    )
    service.complete_transfers(done=[advice[0].tid])
    service.submit_transfers(
        "wf2", "j",
        [{"lfn": "f", "src_url": "gsiftp://s/f", "dst_url": "gsiftp://obelix/scratch/f",
          "nbytes": 1}],
    )
    tool = CleanupTool(env, policy=client, per_file_latency=0.0)
    record = run(env, tool, cleanup_job())
    assert record.deleted == 0
    assert record.skipped == 1
    # Once wf2 releases the file, cleanup proceeds.
    record2 = run(env, tool, cleanup_job(job_id="cleanup_f2"), workflow="wf2")
    assert record2.deleted == 1


def test_policy_cleanup_completion_reported():
    env = Environment()
    service = PolicyService(PolicyConfig(policy="greedy"))
    client = InProcessPolicyClient(service, env, latency=0.0)
    tool = CleanupTool(env, policy=client)
    run(env, tool, cleanup_job())
    assert service.memory.snapshot().get("CleanupFact") is None


def test_replica_unregistered_on_delete():
    env = Environment()
    rc = ReplicaCatalog()
    rc.register("f", "isi", "gsiftp://obelix/scratch/f")
    tool = CleanupTool(env, replicas=rc, host_site={"obelix": "isi"})
    run(env, tool, cleanup_job())
    assert not rc.has("f")


def test_validation():
    env = Environment()
    with pytest.raises(ValueError):
        CleanupTool(env, per_file_latency=-1)


def test_nan_per_file_latency_is_refused():
    # ``nan < 0`` is False: a NaN latency would make every delete take 0 s.
    with pytest.raises(ValueError, match="per_file_latency must be >= 0, got nan"):
        CleanupTool(Environment(), per_file_latency=float("nan"))
