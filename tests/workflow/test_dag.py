"""Unit tests for the abstract workflow DAG."""

import pytest

from repro.workflow import File, Job, Workflow, WorkflowError


def simple_wf():
    wf = Workflow("w")
    a_out = File("a.out", 10)
    b_out = File("b.out", 20)
    wf.add_job(Job("a", "gen", inputs=(File("raw.in", 5),), outputs=(a_out,)))
    wf.add_job(Job("b", "proc", inputs=(a_out,), outputs=(b_out,)))
    wf.add_job(Job("c", "sink", inputs=(b_out,)))
    return wf


def test_file_validation():
    with pytest.raises(WorkflowError):
        File("", 1)
    with pytest.raises(WorkflowError):
        File("x", -1)


def test_job_validation():
    f = File("f", 1)
    with pytest.raises(WorkflowError):
        Job("", "t")
    with pytest.raises(WorkflowError):
        Job("j", "")
    with pytest.raises(WorkflowError):
        Job("j", "t", inputs=(f, f))
    with pytest.raises(WorkflowError):
        Job("j", "t", inputs=(f,), outputs=(f,))


def test_workflow_name_required():
    with pytest.raises(WorkflowError):
        Workflow("")


def test_data_dependencies_derived():
    wf = simple_wf()
    assert wf.parents("b") == ["a"]
    assert wf.children("a") == ["b"]
    assert wf.parents("a") == []
    assert wf.children("c") == []


def test_duplicate_job_rejected():
    wf = simple_wf()
    with pytest.raises(WorkflowError):
        wf.add_job(Job("a", "gen"))


def test_duplicate_producer_rejected():
    wf = Workflow("w")
    out = File("x", 1)
    wf.add_job(Job("p1", "t", outputs=(out,)))
    with pytest.raises(WorkflowError, match="produced by both"):
        wf.add_job(Job("p2", "t", outputs=(out,)))


def test_inconsistent_file_size_rejected():
    wf = Workflow("w")
    wf.add_job(Job("p", "t", outputs=(File("x", 1),)))
    with pytest.raises(WorkflowError, match="inconsistent"):
        wf.add_job(Job("c", "t", inputs=(File("x", 2),)))


def test_cycle_detection():
    wf = Workflow("w")
    x, y = File("x", 1), File("y", 1)
    wf.add_job(Job("a", "t", inputs=(y,), outputs=(x,)))
    wf.add_job(Job("b", "t", inputs=(x,), outputs=(y,)))
    with pytest.raises(WorkflowError, match="cycle"):
        wf.validate()


def test_roots_leaves_topo():
    wf = simple_wf()
    assert wf.roots() == ["a"]
    assert wf.leaves() == ["c"]
    assert wf.topological_order() == ["a", "b", "c"]


def test_levels():
    wf = simple_wf()
    assert wf.levels() == {"a": 0, "b": 1, "c": 2}


def test_levels_longest_path():
    wf = Workflow("w")
    x, y, z = File("x", 1), File("y", 1), File("z", 1)
    wf.add_job(Job("a", "t", outputs=(x,)))
    wf.add_job(Job("b", "t", inputs=(x,), outputs=(y,)))
    # c consumes both the root output and the level-1 output.
    wf.add_job(Job("c", "t", inputs=(x, y), outputs=(z,)))
    assert wf.levels()["c"] == 2  # longest path, not shortest


def test_input_output_files():
    wf = simple_wf()
    assert [f.lfn for f in wf.input_files()] == ["raw.in"]
    assert [f.lfn for f in wf.output_files()] == []  # c has no outputs
    wf2 = Workflow("w2")
    wf2.add_job(Job("only", "t", inputs=(File("in", 1),), outputs=(File("out", 1),)))
    assert [f.lfn for f in wf2.output_files()] == ["out"]


def test_producer_consumers_lookup():
    wf = simple_wf()
    assert wf.producer_of("a.out") == "a"
    assert wf.producer_of("raw.in") is None
    assert wf.consumers_of("a.out") == ["b"]
    assert wf.consumers_of("nope") == []


def test_unknown_job_raises():
    wf = simple_wf()
    with pytest.raises(WorkflowError):
        wf.parents("ghost")


def test_descendants():
    wf = simple_wf()
    assert wf.descendants("a") == {"b", "c"}
    assert wf.descendants("c") == set()


def test_transform_counts_and_len():
    wf = simple_wf()
    assert wf.transform_counts() == {"gen": 1, "proc": 1, "sink": 1}
    assert len(wf) == 3
