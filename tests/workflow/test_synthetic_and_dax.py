"""Unit tests for the test-side workflow generators and ``File`` sizes."""

import numpy as np
import pytest

from repro.workflow.dag import File, WorkflowError

from tests.workflow.generators import (
    chain_workflow,
    diamond_workflow,
    fork_join_workflow,
    random_layered_workflow,
)


def test_chain_structure():
    wf = chain_workflow(length=5)
    assert len(wf) == 5
    assert wf.roots() == ["stage_0"]
    assert wf.leaves() == ["stage_4"]
    assert wf.levels()["stage_4"] == 4


def test_chain_validation():
    with pytest.raises(ValueError):
        chain_workflow(length=0)


def test_diamond_structure():
    wf = diamond_workflow()
    assert wf.parents("join") == ["left", "right"]
    assert wf.children("split") == ["left", "right"]


def test_fork_join_structure():
    wf = fork_join_workflow(width=6)
    assert len(wf) == 8
    assert len(wf.children("fork")) == 6
    assert len(wf.parents("join")) == 6
    with pytest.raises(ValueError):
        fork_join_workflow(width=0)


def test_random_layered_connected_and_deterministic():
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    wf1 = random_layered_workflow(layers=4, width=5, rng=rng1)
    wf2 = random_layered_workflow(layers=4, width=5, rng=rng2)
    assert list(wf1.jobs.values()) == list(wf2.jobs.values())
    # Every non-root job has at least one parent.
    levels = wf1.levels()
    for job_id, level in levels.items():
        if level > 0:
            assert wf1.parents(job_id)


def test_random_layered_validation():
    with pytest.raises(ValueError):
        random_layered_workflow(layers=0)
    with pytest.raises(ValueError):
        random_layered_workflow(edge_prob=1.5)


@pytest.mark.parametrize("size", [float("nan"), float("inf"), -float("inf")])
def test_file_rejects_a_non_finite_size(size):
    with pytest.raises(WorkflowError, match="not a finite size"):
        File("f", size)


def test_file_rejects_a_string_size():
    with pytest.raises(WorkflowError, match="size '2'"):
        File("f", "2")  # type: ignore[arg-type]
