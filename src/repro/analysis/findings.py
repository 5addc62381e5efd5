"""Shared findings model of the static-analysis subsystem.

Both analyzers — the rule-set linter (:mod:`repro.analysis.rulelint`) and
the plan validator (:mod:`repro.analysis.planlint`) — emit
:class:`Finding` records collected into a :class:`Report`.  A finding
carries a stable check id (``R001`` ... rule checks, ``P001`` ... plan
checks), a severity, the subject it is about (a rule name or job id), and
a ``file:line`` location when one is resolvable (rule actions and guards
are ordinary Python functions, so usually it is).

Suppressions
------------
A suppression spec is ``CHECK`` or ``CHECK:substring`` — e.g.
``R003`` silences every salience-tie finding, while
``R003:Remove a transfer`` silences only findings whose subject contains
that substring.  ``Report.suppress`` applies a list of specs and records
how many findings each one consumed, so dead suppressions are visible:
:func:`flag_dead_suppressions` turns specs that consumed nothing across a
whole run into S001 warnings, so stale justifications rot loudly instead
of silently masking future findings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = ["Severity", "Finding", "Report", "flag_dead_suppressions"]


class Severity:
    """Finding severities, ordered ``ERROR > WARNING > INFO``."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    _RANK = {ERROR: 2, WARNING: 1, INFO: 0}

    @classmethod
    def rank(cls, severity: str) -> int:
        try:
            return cls._RANK[severity]
        except KeyError:
            raise ValueError(f"unknown severity {severity!r}") from None


@dataclass(frozen=True)
class Finding:
    """One defect (or observation) surfaced by an analyzer."""

    check: str          #: stable check id, e.g. "R001"
    severity: str       #: Severity.ERROR / WARNING / INFO
    subject: str        #: rule name or plan job id the finding is about
    message: str        #: human-readable explanation
    location: Optional[str] = None   #: "file:line" when resolvable
    detail: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        Severity.rank(self.severity)  # validates

    def to_dict(self) -> dict:
        doc = {
            "check": self.check,
            "severity": self.severity,
            "subject": self.subject,
            "message": self.message,
        }
        if self.location:
            doc["location"] = self.location
        if self.detail:
            doc["detail"] = self.detail
        return doc

    def render(self) -> str:
        loc = f" [{self.location}]" if self.location else ""
        return f"{self.severity.upper():7s} {self.check} {self.subject}: {self.message}{loc}"


def location_of(func) -> Optional[str]:
    """``file:line`` of a callable, when it has retrievable code."""
    code = getattr(func, "__code__", None)
    if code is None:
        return None
    return f"{code.co_filename}:{code.co_firstlineno}"


class Report:
    """An ordered collection of findings for one analysis target."""

    def __init__(self, target: str, findings: Iterable[Finding] = ()):
        self.target = target
        self.findings: list[Finding] = list(findings)
        #: suppression spec -> number of findings it consumed
        self.suppressed: dict[str, int] = {}

    def add(
        self,
        check: str,
        severity: str,
        subject: str,
        message: str,
        location: Optional[str] = None,
        **detail,
    ) -> Finding:
        finding = Finding(check, severity, subject, message, location, detail)
        self.findings.append(finding)
        return finding

    def extend(self, other: "Report") -> "Report":
        self.findings.extend(other.findings)
        for spec, count in other.suppressed.items():
            self.suppressed[spec] = self.suppressed.get(spec, 0) + count
        return self

    # -- severity accounting ------------------------------------------------
    def by_severity(self, severity: str) -> list[Finding]:
        return [f for f in self.findings if f.severity == severity]

    def errors(self) -> list[Finding]:
        return self.by_severity(Severity.ERROR)

    def counts(self) -> dict[str, int]:
        counts = {Severity.ERROR: 0, Severity.WARNING: 0, Severity.INFO: 0}
        for f in self.findings:
            counts[f.severity] += 1
        return counts

    # -- suppression --------------------------------------------------------
    def suppress(self, specs: Iterable[str]) -> "Report":
        """Drop findings matching the given suppression specs (in place)."""
        specs = list(specs)
        for spec in specs:
            self.suppressed.setdefault(spec, 0)
        kept = []
        for finding in self.findings:
            hit = None
            for spec in specs:
                check, _, fragment = spec.partition(":")
                if finding.check == check and (not fragment or fragment in finding.subject):
                    hit = spec
                    break
            if hit is None:
                kept.append(finding)
            else:
                self.suppressed[hit] += 1
        self.findings = kept
        return self

    # -- rendering ----------------------------------------------------------
    def sorted_findings(self) -> list[Finding]:
        return sorted(
            self.findings,
            key=lambda f: (-Severity.rank(f.severity), f.check, f.subject),
        )

    def render_text(self) -> str:
        counts = self.counts()
        lines = [
            f"== {self.target}: {counts['error']} error(s), "
            f"{counts['warning']} warning(s), {counts['info']} info =="
        ]
        lines.extend(f.render() for f in self.sorted_findings())
        for spec, count in sorted(self.suppressed.items()):
            lines.append(f"suppressed {count} finding(s) via {spec!r}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.sorted_findings()],
            "suppressed": dict(self.suppressed),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def flag_dead_suppressions(reports: Iterable["Report"]) -> Report:
    """S001 warnings for suppression specs that consumed nothing anywhere.

    A suppression that stops matching is worse than noise: it documents a
    finding that no longer exists and will silently swallow the next,
    unrelated finding that happens to share its check id and substring.
    Aggregates ``Report.suppressed`` counts across *all* reports of a run
    (a spec alive in any one report is alive), and returns a report with
    one S001 warning per globally-dead spec.
    """
    totals: dict[str, int] = {}
    for report in reports:
        for spec, count in report.suppressed.items():
            totals[spec] = totals.get(spec, 0) + count
    dead = Report("suppressions")
    for spec in sorted(totals):
        if totals[spec] == 0:
            dead.add(
                "S001",
                Severity.WARNING,
                spec,
                "suppression matched no finding in this run: it is dead — "
                "delete it (and its justification) or it will silently "
                "swallow the next finding that matches",
            )
    return dead
