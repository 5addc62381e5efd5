"""Run metrics of an aborted workflow."""

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.environment import build_testbed
from repro.experiments.runner import WorkflowExecution
from repro.planner.executable import JobKind
from repro.workflow.dag import File, Job, Workflow


def _aborted_execution():
    """``c`` (1 s) feeds ``b`` (5 s); ``a`` (2 s) beside them fails, no retries."""
    cfg = ExperimentConfig(policy=None, retries=0, seed=3)
    bed = build_testbed(cfg.testbed, seed=cfg.seed)
    for name, mean in (("ta", 2.0), ("tb", 5.0), ("tc", 1.0)):
        bed.transformations.add(name, mean)
    wf = Workflow("aborted")
    x = File("x", 10.0)
    wf.add_job(Job("a", "ta", outputs=(File("a.out", 1.0),)))
    wf.add_job(Job("c", "tc", outputs=(x,)))
    wf.add_job(Job("b", "tb", inputs=(x,), outputs=(File("b.out", 1.0),)))
    execution = WorkflowExecution(cfg, wf, bed)
    compute = execution.dagman.runners[JobKind.COMPUTE]

    def failing_a(workflow_id, job):
        yield from compute(workflow_id, job)
        if job.id == "a":
            raise RuntimeError("a fails")

    execution.dagman.runners[JobKind.COMPUTE] = failing_a
    bed.env.run(until=execution.start())
    return execution


def test_aborted_run_counts_only_finished_jobs():
    execution = _aborted_execution()
    records = execution.result.records
    assert not execution.result.success
    assert records["a"].state == "failed"
    assert records["c"].state == "done"
    assert records["b"].state == "running"  # still running at the abort
    assert records["cleanup_x"].state == "pending"

    metrics = execution.metrics()
    compute = metrics.job_durations["compute"]
    assert sorted(compute) == sorted([records["a"].duration, records["c"].duration])
    assert all(d > 0 for d in compute)
    assert metrics.job_durations["cleanup"] == []
    assert metrics.compute_time == pytest.approx(sum(compute))
