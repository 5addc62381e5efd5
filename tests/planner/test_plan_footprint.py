"""The per-job objects of a plan and its run stay compact.

A 10,001-task Epigenomics workflow plans into 23,352 executable jobs, so
every byte a job object carries counts ~2.3e4 times: the workflow's
``File`` / ``Job``, the plan's ``ExecutableJob`` / ``TransferSpec`` and the
run's ``JobRecord`` / ``CleanupRecord`` have no instance ``__dict__``, and
a job's empty per-job sequences are the one shared ``()``.
"""

import copy
import dataclasses
import gc
import pickle
import tracemalloc
import weakref

import pytest

from repro.engine.cleanup_tool import CleanupRecord
from repro.experiments import ExperimentConfig
from repro.experiments.runner import execute_workflow
from repro.planner.executable import JobKind
from repro.workflow import epigenomics_workflow

#: Peak bytes per planned-and-run job above the abstract workflow, for
#: ``epigenomics_workflow(lanes=10, chunks=33)`` (2,362 executable jobs)
#: with policy off, after a warm-up run.  With a ``__dict__`` per job
#: object and fresh empty lists per job it was ~1,605 B; compact, ~1,285 B;
#: with the plan's edges stored once, as its adjacency, ~1,071 B (CPython
#: 3.11; not measured on 3.12).  The bound leaves ~12% above that.
BYTES_PER_JOB = 1200


@pytest.fixture(scope="module")
def execution():
    return execute_workflow(
        ExperimentConfig(policy=None, seed=1), epigenomics_workflow(lanes=2, chunks=3)
    )


def _one_of_each(execution):
    stage_in = execution.plan.by_kind(JobKind.STAGE_IN)[0]
    abstract = epigenomics_workflow(lanes=2, chunks=3)
    job = next(j for j in abstract.jobs.values() if j.inputs)
    return [
        job.inputs[0],
        job,
        stage_in.transfers[0],
        stage_in,
        next(iter(execution.result.records.values())),
        CleanupRecord(job_id="cleanup_x", deleted=1),
    ]


def test_no_per_job_object_has_an_instance_dict(execution):
    objects = _one_of_each(execution)
    assert [type(o).__name__ for o in objects] == [
        "File", "Job", "TransferSpec", "ExecutableJob", "JobRecord", "CleanupRecord",
    ]
    for obj in objects:
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_empty_per_job_sequences_are_the_shared_tuple(execution):
    compute = execution.plan.by_kind(JobKind.COMPUTE)
    cleanup = execution.plan.by_kind(JobKind.CLEANUP)
    assert compute and cleanup
    for job in compute:
        assert job.transfers is () and job.cleanup_files is ()
    for job in cleanup:
        assert job.transfers is () and job.output_files is () and job.input_files is ()
        assert isinstance(job.cleanup_files, tuple) and job.cleanup_files


def test_plan_objects_round_trip(execution):
    file, job, _, planned, _, _ = _one_of_each(execution)
    for obj in (file, job, planned):
        assert pickle.loads(pickle.dumps(obj)) == obj
        assert copy.deepcopy(obj) == obj
        assert dataclasses.replace(obj) == obj
    moved = dataclasses.replace(planned, priority=planned.priority + 1)
    assert moved.priority == planned.priority + 1 and moved.transfers == planned.transfers
    with pytest.raises(dataclasses.FrozenInstanceError):
        file.size = 1.0


def test_bytes_held_per_planned_and_run_job():
    # A small run first, so one-time costs (imports, caches) stay out.
    execute_workflow(ExperimentConfig(policy=None, seed=1), epigenomics_workflow(2, 3))
    tracemalloc.start()
    try:
        workflow = epigenomics_workflow(lanes=10, chunks=33)
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        execution = execute_workflow(ExperimentConfig(policy=None, seed=1), workflow)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert execution.result.success
    jobs = len(execution.plan.jobs)
    assert jobs == 2362
    assert peak / jobs <= BYTES_PER_JOB, f"{peak / jobs:.0f} B per job"


def test_a_finished_run_is_freed_by_reference_counting():
    # No cycle holds a finished policy-off run: not DAGMan's closures, not
    # the runners (they close over the components, not the execution), not
    # the any-of on an abort event that never fires, not a granted request
    # or a finished flow whose value is itself.
    gc.collect()
    gc.disable()
    try:
        execution = execute_workflow(
            ExperimentConfig(policy=None, seed=1), epigenomics_workflow(2, 3)
        )
        assert execution.result.success
        refs = [
            weakref.ref(execution.plan),
            weakref.ref(execution.dagman),
            weakref.ref(execution.bed.env),
        ]
        del execution
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()
