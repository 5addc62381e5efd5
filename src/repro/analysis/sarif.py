"""SARIF 2.1.0 export of analysis reports.

`SARIF <https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html>`_
is the interchange format code-scanning UIs (GitHub code scanning, VS
Code SARIF viewer) ingest.  :func:`to_sarif` renders any collection of
:class:`~repro.analysis.findings.Report` objects — linter, plan
validator, or verifier — into one SARIF log with a single ``run``:

* every distinct check id becomes a ``reportingDescriptor`` under the
  tool driver, described from :data:`CHECK_DESCRIPTIONS`;
* every finding becomes a ``result`` with the severity mapped onto SARIF
  levels (``info`` → ``note``), the ``file:line`` location parsed into a
  ``physicalLocation``, and the report target plus any JSON-safe detail
  preserved under ``properties``;
* suppression accounting is preserved per run under
  ``properties.suppressed`` so a SARIF archive still shows what was
  silenced and why that is visible.

``repro lint --format sarif`` prints this document; everything in it is
plain-JSON serializable by construction.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

from repro.analysis.findings import Finding, Report, Severity

__all__ = ["CHECK_DESCRIPTIONS", "to_sarif", "render_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

#: check id -> one-line description surfaced as the SARIF rule metadata
CHECK_DESCRIPTIONS = {
    "R008": "salience is not a named policy tier",
    "R009": "multi-pattern rule misses the join plan or its equality constraints",
    "R010": "rule name is defined more than once across packs",
    "P001": "plan DAG contains a dependency cycle",
    "P002": "stage-in transfers a file no job consumes",
    "P003": "cleanup removes a file a later job still needs",
    "P004": "job consumes a file nothing produces or stages",
    "V005": "compiler plan or dispatch disagrees with the rule's conditions",
    "S001": "suppression spec matched no finding (dead suppression)",
}

_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


def _location(finding: Finding) -> Optional[dict]:
    if not finding.location:
        return None
    path, _, line = finding.location.rpartition(":")
    if not path or not line.isdigit():
        path, line = finding.location, "1"
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": path},
            "region": {"startLine": int(line)},
        }
    }


def _result(report: Report, finding: Finding) -> dict:
    properties = {"target": report.target, "subject": finding.subject}
    if finding.detail:
        properties["detail"] = finding.detail
    result = {
        "ruleId": finding.check,
        "level": _LEVELS[finding.severity],
        "message": {"text": f"{finding.subject}: {finding.message}"},
        "properties": properties,
    }
    location = _location(finding)
    if location:
        result["locations"] = [location]
    return result


def to_sarif(reports: Iterable[Report], tool_name: str = "repro-lint") -> dict:
    """Render reports as one SARIF 2.1.0 log (a plain-JSON dict)."""
    reports = list(reports)
    results = []
    used_checks: set[str] = set()
    for report in reports:
        for finding in report.sorted_findings():
            used_checks.add(finding.check)
            results.append(_result(report, finding))
    rules = [
        {
            "id": check,
            "shortDescription": {
                "text": CHECK_DESCRIPTIONS.get(check, "repro analysis check")
            },
        }
        for check in sorted(used_checks)
    ]
    suppressed: dict[str, int] = {}
    for report in reports:
        for spec, count in report.suppressed.items():
            suppressed[spec] = suppressed.get(spec, 0) + count
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool_name,
                        "informationUri":
                            "https://github.com/paper-repro/policy-wms",
                        "rules": rules,
                    }
                },
                "results": results,
                "properties": {
                    "targets": [r.target for r in reports],
                    "suppressed": suppressed,
                },
            }
        ],
    }


def render_sarif(reports: Iterable[Report], tool_name: str = "repro-lint") -> str:
    return json.dumps(to_sarif(reports, tool_name), indent=2)
