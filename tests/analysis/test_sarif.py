"""SARIF 2.1.0 export of analysis reports."""

import json
import re
from pathlib import Path

from repro.analysis import Severity, render_sarif, to_sarif
from repro.analysis.findings import Report
from repro.analysis.sarif import CHECK_DESCRIPTIONS


def _sample_reports():
    lint = Report("rules:greedy")
    lint.add("R003", Severity.WARNING, "rule a", "ambiguous tie",
             location="/src/pack.py:12")
    lint.add("R007", Severity.INFO, "rule b", "dependency cycle")
    lint.suppress(["R006"])
    verify = Report("verify:greedy")
    verify.add("V001", Severity.ERROR, "pack:greedy", "not confluent",
               counterexample={"kind": "confluence", "soup": []})
    return [lint, verify]


def test_sarif_document_shape():
    doc = to_sarif(_sample_reports())
    assert doc["version"] == "2.1.0"
    assert "sarif-2.1.0" in doc["$schema"]
    (run,) = doc["runs"]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [
        "R003", "R007", "V001"
    ]
    assert run["properties"]["targets"] == ["rules:greedy", "verify:greedy"]
    assert run["properties"]["suppressed"] == {"R006": 0}


def test_sarif_results_map_severities_and_locations():
    doc = to_sarif(_sample_reports())
    results = {r["ruleId"]: r for r in doc["runs"][0]["results"]}
    assert results["V001"]["level"] == "error"
    assert results["R003"]["level"] == "warning"
    assert results["R007"]["level"] == "note"
    location = results["R003"]["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "/src/pack.py"
    assert location["region"]["startLine"] == 12
    assert "locations" not in results["R007"]


def test_sarif_preserves_counterexample_detail():
    doc = to_sarif(_sample_reports())
    results = {r["ruleId"]: r for r in doc["runs"][0]["results"]}
    detail = results["V001"]["properties"]["detail"]
    assert detail["counterexample"]["kind"] == "confluence"


def test_render_sarif_is_valid_json():
    doc = json.loads(render_sarif(_sample_reports()))
    assert doc["runs"][0]["results"]


def test_every_documented_check_has_a_description_and_vice_versa():
    docs = Path(__file__).resolve().parents[2] / "docs" / "analysis.md"
    headings = set(re.findall(r"^### ([A-Z]\d{3}) —", docs.read_text(), re.MULTILINE))
    assert headings | {"S001"} == set(CHECK_DESCRIPTIONS)
