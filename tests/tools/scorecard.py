"""Mutation scorecard: which analyzer check and which dynamic oracle catch
each defect planted in a shipped rule pack.

Every rule-fixture defect class of ``tests/analysis/defect_fixtures.py``
(plus three seeded mutants and the compiler mutant V005's own test uses)
is planted into a *shipped* pack as a textual patch, in a throwaway copy
of the checkout under a temp directory — never in the checkout itself.
For each mutant:

* **static columns** — ``repro lint --rules <packs> --verify --format
  json`` with the CLI's default seed and trials; a check catches the
  mutant when it reports a finding the unpatched copy does not (the
  cell is that finding's severity);
* **dynamic oracles**, in cost order, stopping at the first catch:
  the Table I-III state machine on the tier-1 Hypothesis examples (the
  ``scorecard`` profile of ``tests/conftest.py``: tier-1 without
  shrinking, since the first failure is all a row needs); the
  engine-vs-reference legs; the rest of tier-1 with ``-x`` (without the
  tests that run the analyzers themselves); the six policy-on bench
  workloads at their default size and seed (a golden mismatch or
  ``correct: false`` catches); and only when those all miss, ``pytest
  benchmarks`` and a diff of ``benchmarks/results``.

The table between the markers in ``docs/analysis.md`` is rewritten from
the results; ``tests/tools/test_scorecard.py`` re-derives its static
columns in tier-1.  Run from the repository root (~17 min on 2 vCPUs)::

    PYTHONPATH=src python -m tests.tools.scorecard
"""

from __future__ import annotations

import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.sarif import CHECK_DESCRIPTIONS

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "analysis.md"
BEGIN = "<!-- scorecard:begin (python -m tests.tools.scorecard) -->"
END = "<!-- scorecard:end -->"
#: the rule-pack checks, a column each: the R and V ids SARIF describes
CHECKS = tuple(check for check in CHECK_DESCRIPTIONS if check[0] in "RV")
#: checks the table does not decide
KEPT_REGARDLESS = {"R010": "a pack with a duplicate rule name cannot run at all"}
#: the bench workloads that run policy (dag10k_nopolicy runs none)
BENCH_WORKLOADS = (
    "montage_cell", "montage_sharded4", "tenant_ensemble",
    "svc_smallbatch", "svc_bigbatch", "rest_loopback",
)
COMMON = "src/repro/policy/rules_common.py"
FAIRSHARE = "src/repro/policy/rules_fairshare.py"
ACCESS = "src/repro/policy/rules_access.py"
EVICTION = "src/repro/datacatalog/rules_eviction.py"
#: two mutants run at once: each runs its oracles serially
WORKERS = 2


@dataclass(frozen=True)
class Mutant:
    """One planted defect: ``edits`` are ``(old, new)`` replacements in
    ``path``; each ``old`` must occur there exactly once."""

    name: str
    defect: str
    rule: str
    path: str
    edits: tuple[tuple[str, str], ...]
    #: the ``repro lint --rules`` value: the rule sets and compositions
    #: that load the patched rule
    packs: str = "greedy"


MUTANTS: tuple[Mutant, ...] = (
    # -- unknown attribute --------------------------------------------------
    Mutant(
        "attr-cell", "unknown attribute", "Detach a cleanup's workflow (Table I, fired)",
        COMMON,
        (('b["c"].workflow in r.users,', 'b["c"].workflow in r.readers,'),),
    ),
    Mutant(
        "attr-eviction", "unknown attribute", "Select eviction victims", EVICTION,
        (('where=lambda s, b: s.capacity_bytes is not None',
          'where=lambda s, b: s.capacity is not None'),),
        packs="catalog",
    ),
    # -- salience tie, shadowing -------------------------------------------
    Mutant(
        "tie", "salience tie", "Remove transfers already staged (Table I)", COMMON,
        (("salience=salience.DEDUP_STAGED,", "salience=salience.DEDUP_BATCH,"),),
    ),
    Mutant(
        "shadow", "shadowing", "Remove transfers already staged (Table I)", COMMON,
        (('where=lambda r, b: r.status == "staged",\n', ''),),
    ),
    # -- divergent update ---------------------------------------------------
    Mutant(
        "diverge-cell", "divergent update", "Approve a cleanup (Table I, fired)", COMMON,
        (('def _approve_cleanup(ctx):\n    ctx.update(ctx.c, status="approved")',
          'def _approve_cleanup(ctx):\n    ctx.update(ctx.c, status="approved")\n'
          '    ctx.update(ctx.c, status="new")'),),
    ),
    Mutant(
        "diverge-fairshare", "divergent update", "Clamp to the tenant budget", FAIRSHARE,
        (("and t.requested_streams is not None\n"
          "                    and t.tenant_streams_reserved == 0,",
          "and t.requested_streams is not None,"),),
    ),
    # -- reachability, cycles, salience hygiene ----------------------------
    Mutant(
        "unreachable", "unreachable rule", "Assign the group ID (Table I)", COMMON,
        (('HostPairFact,\n                    "pair",', 'ClusterAllocationFact,\n                    "pair",'),),
    ),
    Mutant(
        "cycle", "dependency cycle", "Retire a lease sweep", COMMON,
        (("def _retire_sweep(ctx):\n    ctx.retract(ctx.sweep)",
          "def _retire_sweep(ctx):\n    ctx.retract(ctx.sweep)\n"
          "    ctx.insert(LeaseSweepFact(ctx.sweep.now))"),),
        packs="greedy,greedy_leases",
    ),
    Mutant(
        "magic-salience", "magic salience", "Remove transfers in progress (Table I)", COMMON,
        (("salience=salience.DEDUP_IN_FLIGHT,", "salience=77,"),),
    ),
    Mutant(
        "unkeyed-join", "unkeyed join", "Remove transfers already staged (Table I)", COMMON,
        (('r.status == "staged",\n                    lfn=Ref("t", "lfn"),\n'
          '                    dst_url=Ref("t", "dst_url"),\n',
          'r.status == "staged"\n                    and r.lfn == b["t"].lfn\n'
          '                    and r.dst_url == b["t"].dst_url,\n'),),
    ),
    Mutant(
        "duplicate-name", "duplicate name", "Remove transfers in progress (Table I)", COMMON,
        (('"Remove transfers from the transfer list that are already in progress",',
          '"Remove transfers whose file is already staged",'),),
    ),
    # -- the verifier's classes --------------------------------------------
    Mutant(
        "non-confluent", "non-confluent pair", "Remove transfers in progress (Table I)",
        COMMON,
        (("salience=salience.DEDUP_IN_FLIGHT,", "salience=salience.DEDUP_STAGED,"),),
    ),
    Mutant(
        "reserve-cell", "unbalanced reserve", "Remove a completed transfer (Table I, fired)",
        COMMON,
        (("t = ctx.t\n    _release(ctx, t)\n    for r in ctx._session.memory.lookup("
          "StagedFileFact, lfn=t.lfn, dst_url=t.dst_url):\n        if r.status == \"staging\":",
          "t = ctx.t\n    for r in ctx._session.memory.lookup("
          "StagedFileFact, lfn=t.lfn, dst_url=t.dst_url):\n        if r.status == \"staging\":"),),
    ),
    Mutant(
        "reserve-failed", "unbalanced reserve", "Remove a failed transfer (Table I)", COMMON,
        (("t = ctx.t\n    _release(ctx, t)\n    for r in ctx._session.memory.lookup("
          "StagedFileFact, lfn=t.lfn, dst_url=t.dst_url):\n        if r.status == \"staging\" and",
          "t = ctx.t\n    for r in ctx._session.memory.lookup("
          "StagedFileFact, lfn=t.lfn, dst_url=t.dst_url):\n        if r.status == \"staging\" and"),),
    ),
    Mutant(
        "reserve-access", "unbalanced reserve", "Refund a failed transfer's quota", ACCESS,
        (("used_bytes=max(0.0, ctx.quota.used_bytes - ctx.t.nbytes),",
          "used_bytes=ctx.quota.used_bytes,"),),
        packs="access",
    ),
    Mutant(
        "retract-referenced", "retract-while-referenced",
        "Remove a completed transfer (Table I, fired)", COMMON,
        (('if r.status == "staging":\n            ctx.update(r, status="staged")',
          'if r.status == "staging":\n            ctx.retract(r)'),),
    ),
    Mutant(
        "stale-globals", "stale globals", "Assign default streams (Table I)", COMMON,
        (("t.requested_streams is None,",
          't.requested_streams is None\n'
          '                    and b["_globals"]["group_counter"] > 1,'),),
    ),
    # -- seeded mutants -----------------------------------------------------
    Mutant(
        "drop-conjunct", "drop a guard conjunct", "Remove duplicate cleanups (Table I)", COMMON,
        (('o.cid != b["c"].cid\n                    and o.status in ("approved", "in_progress"),',
          'o.cid != b["c"].cid,'),),
    ),
    Mutant(
        "drop-update-attr", "drop an update attribute", "Wait for an in-flight transfer (Table I)",
        COMMON,
        (('ctx.update(ctx.t, status="wait", wait_for=ctx.other.tid,',
          'ctx.update(ctx.t, status="wait",'),),
    ),
    Mutant(
        "swap-salience", "swap two saliences", "Detach / skip a cleanup in use (Table I)", COMMON,
        (("salience=salience.CLEANUP_DETACH,", "salience=salience.CLEANUP_SKIP_IN_USE,"),
         ("salience=salience.CLEANUP_SKIP_IN_USE,\n            when=[\n                Pattern(\n"
          "                    CleanupFact,\n                    \"c\",\n"
          "                    where=lambda c, b: c.status in (\"new\", \"detached\"),",
          "salience=salience.CLEANUP_DETACH,\n            when=[\n                Pattern(\n"
          "                    CleanupFact,\n                    \"c\",\n"
          "                    where=lambda c, b: c.status in (\"new\", \"detached\"),")),
    ),
    # -- the compiler mutant of V005's test --------------------------------
    Mutant(
        "compiler-kind", "compiler plan kind", "Remove duplicate transfers (Table I)",
        "src/repro/rules/compiler.py",
        (('    return RulePlan(rule, order, PLAN_JOIN, "", positions)',
          '    kind = PLAN_JOIN\n'
          '    if rule.name == "Remove duplicate transfers from the transfer list":\n'
          '        kind = PLAN_DELTA\n'
          '    return RulePlan(rule, order, kind, "", positions)'),),
    ),
)


# ------------------------------------------------------------------ copies
def tracked_files(root: Path = ROOT) -> list[str]:
    """The checkout's files as git sees them (tracked or not ignored); in
    a tree without git (an archive), every file outside caches."""
    try:
        out = subprocess.run(
            ["git", "ls-files", "-co", "--exclude-standard", "-z"],
            cwd=root, check=True, capture_output=True, text=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return sorted(
            str(p.relative_to(root)) for p in root.rglob("*")
            if p.is_file() and not {"__pycache__", ".git", ".hypothesis"} & set(p.parts)
        )
    return sorted(p for p in out.split("\0") if p and (root / p).is_file())


def copy_checkout(dest: Path, files, root: Path = ROOT) -> Path:
    for rel in files:
        target = dest / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(root / rel, target)
    return dest


def patched(mutant: Mutant, text: str) -> str:
    """``text`` with the mutant's edits; each must match exactly once."""
    for old, new in mutant.edits:
        count = text.count(old)
        if count != 1:
            raise ValueError(f"{mutant.name}: edit matches {count} times in {mutant.path}")
        text = text.replace(old, new)
    return text


def plant(mutant: Mutant, root: Path) -> None:
    path = root / mutant.path
    path.write_text(patched(mutant, path.read_text()))


# ------------------------------------------------------------------ static
_LOCATION = re.compile(r"\S+\.py:\d+")


def _env(root: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def lint_findings(root: Path, packs: str) -> set[tuple[str, str, str, str]]:
    """``(check, severity, subject, message)`` of every finding ``repro
    lint --rules packs --verify`` reports on the copy at ``root``; source
    locations are dropped from messages (a patch moves line numbers)."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--rules", packs, "--verify",
         "--format", "json"],
        cwd=root, env=_env(root), capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"repro lint --rules {packs} failed:\n{proc.stderr[-2000:]}")
    return {
        (f["check"], f["severity"], f["subject"], _LOCATION.sub("<loc>", f["message"]))
        for report in json.loads(proc.stdout)
        for f in report["findings"]
    }


_RANK = {"error": 3, "warning": 2, "info": 1}


def static_row(found: set, baseline: set) -> dict[str, str]:
    """check -> the most severe finding the mutant adds ("" when none)."""
    row = {check: "" for check in CHECKS}
    for check, severity, _subject, _message in found - baseline:
        if check in row and _RANK[severity] > _RANK.get(row[check], 0):
            row[check] = severity
    return row


def static_rows(mutants=MUTANTS, root: Path = ROOT) -> dict[str, dict[str, str]]:
    """The static columns of every mutant, from copies of ``src/`` only."""
    with tempfile.TemporaryDirectory(prefix="scorecard-") as tmp:
        files = [f for f in tracked_files(root) if f.startswith("src/")]
        pristine = copy_checkout(Path(tmp) / "base", files, root)

        def copy_for(mutant):
            dest = Path(tmp) / mutant.name
            shutil.copytree(pristine, dest)
            plant(mutant, dest)
            return dest

        with ThreadPoolExecutor(WORKERS) as pool:
            packs = sorted({m.packs for m in mutants})
            baselines = dict(zip(packs, pool.map(lambda p: lint_findings(pristine, p), packs)))
            copies = [copy_for(m) for m in mutants]
            found = pool.map(lambda mc: lint_findings(mc[1], mc[0].packs), zip(mutants, copies))
            return {
                m.name: static_row(f, baselines[m.packs]) for m, f in zip(mutants, found)
            }


# ------------------------------------------------------------------ dynamic
#: tier-1 tests that run the analyzers themselves: no dynamic oracle
ANALYZER_TESTS = (
    "tests/test_cli.py::test_lint_requires_a_target",
    "tests/test_cli.py::test_lint_rejects_unknown_rule_set",
    "tests/test_cli.py::test_lint_single_rule_set_text",
    "tests/test_cli.py::test_lint_all_is_clean_and_json_renders",
    "tests/test_cli.py::test_lint_plan_only",
    "tests/test_cli.py::test_lint_suppression_is_reported",
    "tests/test_cli.py::test_lint_verify_single_composition",
    "tests/test_cli.py::test_lint_verify_selects_a_verifier_only_composition",
    "tests/test_cli.py::test_lint_sarif_output",
    "tests/test_cli.py::test_lint_dead_suppression_is_flagged_s001",
    "tests/rules/test_plan_reads.py::test_recorded_guard_reads_stay_inside_the_plan_read_set",
    "tests/rules/test_plan_reads.py::test_shipped_gate_read_sets_hold_what_each_gate_consults",
)
MODEL = "tests/policy/test_policy_model.py::TestPolicyMachine"
#: tier-1's examples without shrinking (registered in tests/conftest.py)
PROFILE = "--hypothesis-profile=scorecard"
EQUIVALENCE = "tests/policy/test_engine_equivalence.py"
_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)
_INVARIANT = re.compile(r"\[([a-z][a-z-]*)\]")
#: one oracle may run this long before its silence counts as a hang
TIMEOUT = 1800


def _pytest(root: Path, *args: str) -> tuple[bool, str]:
    """Run pytest in the copy; ``(caught, first failing test id)``."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
             *args],
            cwd=root, env=_env(root), capture_output=True, text=True, timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return True, "(timed out)"
    if proc.returncode == 0:
        return False, ""
    if proc.returncode == 5:  # nothing collected: a selection that went stale
        raise RuntimeError(f"pytest collected nothing for {args}")
    found = _FAILED.search(proc.stdout)
    test = found.group(1) if found else f"(pytest exit {proc.returncode})"
    invariant = _INVARIANT.search(proc.stdout[proc.stdout.find("Error"):])
    if test.startswith(MODEL) and invariant:
        test += f" [{invariant.group(1)}]"
    return True, test


def engine_legs(root: Path) -> list[str]:
    """The equivalence file and every ``both_engines`` test, by node id."""
    files = sorted(
        str(p.relative_to(root)) for p in (root / "tests").rglob("test_*.py")
        if "both_engines" in p.read_text()
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-o", "addopts=", "-q",
         "-p", "no:cacheprovider", *files],
        cwd=root, env=_env(root), capture_output=True, text=True, check=True,
    )
    ids = [line for line in proc.stdout.splitlines() if "::" in line]
    return [
        i for i in ids
        if i.startswith(EQUIVALENCE)
        or re.search(r"\[(?:.*-)?(?:seed|compiled)(?:-.*)?\]$", i)
    ]


def _bench(root: Path) -> tuple[bool, str]:
    for workload in BENCH_WORKLOADS:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload],
            cwd=root, env=_env(root), capture_output=True, text=True, timeout=TIMEOUT,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if result is None or not result["correct"]:
            problem = re.search(r"CHECK FAILED: (\w+)", proc.stderr)
            why = problem.group(1) if problem else "no result"
            return True, f"bench/run.py --workload {workload} ({why})"
    return False, ""


def _paper(root: Path) -> tuple[bool, str]:
    caught, test = _pytest(root, "benchmarks")
    if caught:
        return caught, test
    results = root / "benchmarks" / "results"
    for path in sorted(results.rglob("*")):
        original = ROOT / path.relative_to(root)
        if path.is_file() and not (original.is_file() and filecmp.cmp(path, original, shallow=False)):
            return True, str(path.relative_to(root))
    return False, ""


ORACLES = ("model machine", "engine legs", "tier-1", "bench", "paper")


def dynamic_catch(root: Path) -> tuple[str, str]:
    """``(oracle, first failing test)`` of the first oracle that catches
    the planted copy at ``root``, or ``("", "")``."""
    legs = engine_legs(root)
    rest = [f"--deselect={i}" for i in (MODEL, *legs, *ANALYZER_TESTS)]
    steps = (
        lambda: _pytest(root, PROFILE, MODEL),
        lambda: _pytest(root, PROFILE, *legs),
        lambda: _pytest(root, PROFILE, "tests", "--ignore=tests/analysis",
                        "--ignore=tests/tools", f"--ignore={EQUIVALENCE}", *rest),
        lambda: _bench(root),
        lambda: _paper(root),
    )
    for oracle, step in zip(ORACLES, steps):
        caught, test = step()
        if caught:
            return oracle, test
    return "", ""


def score(mutant: Mutant, files, static: dict[str, str]) -> dict:
    with tempfile.TemporaryDirectory(prefix=f"scorecard-{mutant.name}-") as tmp:
        root = copy_checkout(Path(tmp), files)
        plant(mutant, root)
        oracle, test = dynamic_catch(root)
    print(f"scorecard: {mutant.name}: {oracle or 'missed'} {test}", file=sys.stderr, flush=True)
    return {"static": static, "oracle": oracle, "test": test}


# ------------------------------------------------------------------ table
SHORT = {"error": "E", "warning": "W", "info": "I", "": ""}


def verdicts(results: dict[str, dict]) -> dict[str, str]:
    """check -> what the scorecard says of it (ROADMAP item 16's rule)."""
    out = {}
    for check in CHECKS:
        caught = [m.name for m in MUTANTS if results[m.name]["static"][check]]
        only = [name for name in caught if not results[name]["oracle"]]
        if only:
            out[check] = "keep: only catcher of " + ", ".join(f"`{n}`" for n in only)
        elif caught:
            out[check] = "duplicate: every catch is also caught dynamically"
        else:
            out[check] = "catches no mutant"
        if check in KEPT_REGARDLESS:
            out[check] += f" (kept: {KEPT_REGARDLESS[check]})"
    return out


def render(results: dict[str, dict]) -> str:
    head = ["mutant", "defect", "planted in", *CHECKS, "first dynamic catch", "first failing test"]
    lines = [
        "| " + " | ".join(head) + " |",
        "|" + "---|" * len(head),
    ]
    for m in MUTANTS:
        r = results[m.name]
        cells = [f"`{m.name}`", m.defect, m.rule, *(SHORT[r["static"][c]] for c in CHECKS),
                 r["oracle"] or "**missed**", f"`{r['test']}`" if r["test"] else ""]
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    lines.append("Static cells: the most severe finding the mutant adds (E error, W "
                 "warning, I info).  Verdict per check:")
    lines.append("")
    for check, verdict in verdicts(results).items():
        lines.append(f"- {check}: {verdict}")
    return "\n".join(lines)


def table_rows(text: str) -> dict[str, dict[str, str]]:
    """mutant -> check -> cell letter, read back from a rendered table."""
    block = text[text.index(BEGIN):text.index(END)]
    rows = {}
    for line in block.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == len(CHECKS) + 5 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = dict(zip(CHECKS, cells[3:3 + len(CHECKS)]))
    return rows


def write_table(results: dict[str, dict], doc: Path = DOC) -> None:
    text = doc.read_text()
    start, end = text.index(BEGIN) + len(BEGIN), text.index(END)
    doc.write_text(text[:start] + "\n" + render(results) + "\n" + text[end:])


def main() -> int:
    start = time.perf_counter()
    files = tracked_files()
    static = static_rows()
    with ThreadPoolExecutor(WORKERS) as pool:
        scored = list(pool.map(lambda m: score(m, files, static[m.name]), MUTANTS))
    write_table(dict(zip((m.name for m in MUTANTS), scored)))
    print(f"scorecard: {len(MUTANTS)} mutants in {time.perf_counter() - start:.0f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
