"""Unit tests for synthetic generators and DAX JSON round-tripping."""

import json

import numpy as np
import pytest

from repro.workflow import (
    chain_workflow,
    diamond_workflow,
    fork_join_workflow,
    montage_workflow,
    random_layered_workflow,
    workflow_from_json,
    workflow_to_json,
)
from repro.workflow.dag import File, WorkflowError
from repro.workflow.montage import MontageConfig


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
    assert workflow_to_json(wf1) == workflow_to_json(wf2)
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


def test_dax_roundtrip_montage():
    wf = montage_workflow(MontageConfig(n_images=9, name="m9"))
    text = workflow_to_json(wf, indent=2)
    back = workflow_from_json(text)
    assert back.name == wf.name
    assert set(back.jobs) == set(wf.jobs)
    assert back.transform_counts() == wf.transform_counts()
    assert workflow_to_json(back) == workflow_to_json(wf)


def test_dax_roundtrip_preserves_control_edges():
    wf = diamond_workflow()
    wf.add_control_edge("left", "right")
    back = workflow_from_json(workflow_to_json(wf))
    assert "left" in back.parents("right")


def test_dax_rejects_garbage():
    with pytest.raises(WorkflowError):
        workflow_from_json("{not json")
    with pytest.raises(WorkflowError):
        workflow_from_json('{"format": "other", "name": "x"}')


def test_dax_xml_roundtrip_montage():
    from repro.workflow.dax import workflow_from_dax_xml, workflow_to_dax_xml

    wf = montage_workflow(MontageConfig(n_images=9, name="m9"))
    text = workflow_to_dax_xml(wf)
    assert text.startswith("<adag")
    assert 'link="input"' in text and 'link="output"' in text
    back = workflow_from_dax_xml(text)
    assert set(back.jobs) == set(wf.jobs)
    assert back.transform_counts() == wf.transform_counts()
    for lfn in ("raw_0.fits", "mosaic.jpg"):
        assert back.file(lfn).size == wf.file(lfn).size


def test_dax_xml_roundtrip_control_edges():
    from repro.workflow.dax import workflow_from_dax_xml, workflow_to_dax_xml

    wf = diamond_workflow()
    wf.add_control_edge("left", "right")
    back = workflow_from_dax_xml(workflow_to_dax_xml(wf))
    assert "left" in back.parents("right")


def test_dax_xml_rejects_garbage():
    from repro.workflow.dax import workflow_from_dax_xml

    with pytest.raises(WorkflowError, match="invalid DAX"):
        workflow_from_dax_xml("<not-closed")
    with pytest.raises(WorkflowError, match="not a DAX"):
        workflow_from_dax_xml("<other/>")
    with pytest.raises(WorkflowError, match="missing the workflow name"):
        workflow_from_dax_xml("<adag/>")
    with pytest.raises(WorkflowError, match="bad link"):
        workflow_from_dax_xml(
            '<adag name="w"><job id="j" name="t">'
            '<uses file="f" link="sideways" size="1"/></job></adag>'
        )


# ------------------------------------------- documents from outside the program
def _json_doc(job=None, name="w"):
    doc = {"format": "repro-dax-1", "jobs": [job or {
        "id": "j", "transform": "t",
        "inputs": [{"lfn": "in", "size": 1.0}], "outputs": [{"lfn": "out", "size": 2.0}],
    }]}
    if name is not None:
        doc["name"] = name
    return doc


@pytest.mark.parametrize("size", [float("nan"), float("inf"), -float("inf")])
def test_file_rejects_a_non_finite_size(size):
    with pytest.raises(WorkflowError, match="not a finite size"):
        File("f", size)


def test_json_loader_rejects_a_document_that_is_not_an_object():
    with pytest.raises(WorkflowError, match="unrecognized workflow document format: 'list'"):
        workflow_from_json("[1]")


@pytest.mark.parametrize("field", ["name", "id", "transform", "lfn"])
def test_json_loader_names_a_missing_field(field):
    doc = _json_doc()
    if field == "name":
        del doc["name"]
    elif field == "lfn":
        del doc["jobs"][0]["inputs"][0]["lfn"]
    else:
        del doc["jobs"][0][field]
    with pytest.raises(WorkflowError, match=f"missing '{field}'"):
        workflow_from_json(json.dumps(doc))


def test_json_loader_rejects_a_string_size():
    doc = _json_doc()
    doc["jobs"][0]["outputs"][0]["size"] = "2"
    with pytest.raises(WorkflowError, match="size '2'"):
        workflow_from_json(json.dumps(doc))


def test_json_loader_rejects_a_nan_size():
    text = json.dumps(_json_doc()).replace('"size": 2.0', '"size": NaN')
    assert "NaN" in text
    with pytest.raises(WorkflowError, match="size nan"):
        workflow_from_json(text)


@pytest.mark.parametrize("size", ["abc", "nan", "inf"])
def test_dax_xml_loader_rejects_a_bad_size(size):
    from repro.workflow.dax import workflow_from_dax_xml

    text = f'<adag name="w"><job id="j" name="t"><uses file="f" link="input" size="{size}"/></job></adag>'
    with pytest.raises(WorkflowError, match="size"):
        workflow_from_dax_xml(text)
