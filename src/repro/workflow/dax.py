"""(De)serialization of abstract workflows.

Pegasus exchanges abstract workflows as DAX XML documents.  We provide
both a compact JSON encoding and a DAX-flavoured XML encoding with the
same information content: jobs, their transforms, input/output files with
sizes (``link="input"``/``link="output"`` uses-elements, as in DAX), and
explicit control edges (``<child>``/``<parent>`` elements).
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from typing import Any

from repro.workflow.dag import File, Job, Workflow, WorkflowError

__all__ = [
    "workflow_to_json",
    "workflow_from_json",
    "workflow_to_dax_xml",
    "workflow_from_dax_xml",
]

_FORMAT = "repro-dax-1"


def workflow_to_json(workflow: Workflow, indent: int | None = None) -> str:
    """Serialize a workflow (stable job order) to a JSON document."""
    doc: dict[str, Any] = {
        "format": _FORMAT,
        "name": workflow.name,
        "jobs": [
            {
                "id": job.id,
                "transform": job.transform,
                "inputs": [{"lfn": f.lfn, "size": f.size} for f in job.inputs],
                "outputs": [{"lfn": f.lfn, "size": f.size} for f in job.outputs],
            }
            for job in (workflow.jobs[jid] for jid in sorted(workflow.jobs))
        ],
        "control_edges": sorted(workflow._control_edges),
    }
    return json.dumps(doc, indent=indent)


def workflow_from_json(text: str) -> Workflow:
    """Parse a workflow serialized by :func:`workflow_to_json`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkflowError(f"invalid workflow JSON: {exc}") from exc
    fmt = doc.get("format") if isinstance(doc, dict) else type(doc).__name__
    if fmt != _FORMAT:
        raise WorkflowError(f"unrecognized workflow document format: {fmt!r}")
    try:
        wf = Workflow(doc["name"])
        for job_doc in doc.get("jobs", []):
            wf.add_job(
                Job(
                    id=job_doc["id"],
                    transform=job_doc["transform"],
                    inputs=tuple(File(f["lfn"], f["size"]) for f in job_doc.get("inputs", [])),
                    outputs=tuple(File(f["lfn"], f["size"]) for f in job_doc.get("outputs", [])),
                )
            )
        for parent, child in doc.get("control_edges", []):
            wf.add_control_edge(parent, child)
    except KeyError as exc:
        raise WorkflowError(f"workflow document is missing {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise WorkflowError(f"malformed workflow document: {exc}") from None
    wf.validate()
    return wf


# ---------------------------------------------------------------------------
# DAX-flavoured XML
# ---------------------------------------------------------------------------
def workflow_to_dax_xml(workflow: Workflow) -> str:
    """Serialize a workflow as a DAX-flavoured XML document."""
    root = ET.Element("adag", {"name": workflow.name, "jobCount": str(len(workflow))})
    for job_id in sorted(workflow.jobs):
        job = workflow.jobs[job_id]
        job_el = ET.SubElement(root, "job", {"id": job.id, "name": job.transform})
        for f in job.inputs:
            ET.SubElement(
                job_el, "uses",
                {"file": f.lfn, "link": "input", "size": repr(f.size)},
            )
        for f in job.outputs:
            ET.SubElement(
                job_el, "uses",
                {"file": f.lfn, "link": "output", "size": repr(f.size)},
            )
    # Control edges: DAX expresses dependencies as <child><parent/></child>.
    by_child: dict[str, list[str]] = {}
    for parent, child in sorted(workflow._control_edges):
        by_child.setdefault(child, []).append(parent)
    for child, parents in sorted(by_child.items()):
        child_el = ET.SubElement(root, "child", {"ref": child})
        for parent in parents:
            ET.SubElement(child_el, "parent", {"ref": parent})
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


def workflow_from_dax_xml(text: str) -> Workflow:
    """Parse a workflow serialized by :func:`workflow_to_dax_xml`."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise WorkflowError(f"invalid DAX XML: {exc}") from exc
    if root.tag != "adag":
        raise WorkflowError(f"not a DAX document (root element {root.tag!r})")
    name = root.get("name")
    if not name:
        raise WorkflowError("DAX document is missing the workflow name")
    wf = Workflow(name)
    for job_el in root.findall("job"):
        job_id, transform = job_el.get("id"), job_el.get("name")
        if not job_id or not transform:
            raise WorkflowError("DAX job element requires id and name")
        inputs, outputs = [], []
        for uses in job_el.findall("uses"):
            try:
                size = float(uses.get("size", "0"))
            except ValueError:
                raise WorkflowError(f"uses element with bad size {uses.get('size')!r}") from None
            f = File(uses.get("file", ""), size)
            link = uses.get("link")
            if link == "input":
                inputs.append(f)
            elif link == "output":
                outputs.append(f)
            else:
                raise WorkflowError(f"uses element with bad link {link!r}")
        wf.add_job(Job(job_id, transform, inputs=tuple(inputs), outputs=tuple(outputs)))
    for child_el in root.findall("child"):
        child = child_el.get("ref", "")
        for parent_el in child_el.findall("parent"):
            wf.add_control_edge(parent_el.get("ref", ""), child)
    wf.validate()
    return wf
