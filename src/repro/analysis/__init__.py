"""Static analysis of policy rule sets and staged execution plans.

Three analyzers over a shared findings model:

* :mod:`repro.analysis.rulelint` — checks built rule sets for salience
  hygiene, the join network's fast path, and duplicate rule names
  (R008-R010).
* :mod:`repro.analysis.planlint` — checks planner output DAGs for cycles,
  useless stage-ins, premature cleanup, and unproduced inputs
  (P001-P004).
* :mod:`repro.analysis.verifier` — checks every composition the Policy
  Service instantiates for agreement between the rule compiler's plans
  and the rules (V005).

Each check here is the only catcher of some defect the mutation
scorecard (``docs/analysis.md``, ``python -m tests.tools.scorecard``)
plants in a shipped pack: no dynamic oracle catches it.  Reports export
as text, JSON, or SARIF 2.1.0 (:mod:`repro.analysis.sarif`); dead suppressions surface as S001
warnings (:func:`flag_dead_suppressions`).  Run everything from the
command line with ``python -m repro lint --all --verify``.
"""

from repro.analysis.findings import (
    Finding,
    Report,
    Severity,
    flag_dead_suppressions,
)
from repro.analysis.planlint import lint_plan
from repro.analysis.rulelint import lint_rule_set, lint_rules, shipped_rule_sets
from repro.analysis.sarif import render_sarif, to_sarif
from repro.analysis.verifier import (
    VERIFY_SUPPRESSIONS,
    verify_compositions,
    verify_pack,
)

__all__ = [
    "Finding",
    "Report",
    "Severity",
    "flag_dead_suppressions",
    "lint_plan",
    "lint_rule_set",
    "lint_rules",
    "shipped_rule_sets",
    "render_sarif",
    "to_sarif",
    "VERIFY_SUPPRESSIONS",
    "verify_compositions",
    "verify_pack",
]
