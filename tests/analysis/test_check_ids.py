"""One set of check ids: every list that names the analyzers' checks names
the same ones, so a deleted check leaves no stale id behind."""

import argparse
import ast
import re
from pathlib import Path

from repro.analysis import VERIFY_SUPPRESSIONS
from repro.analysis.sarif import CHECK_DESCRIPTIONS
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[2]
CHECK_ID = re.compile(r"[PRSV]\d{3}")


def emitted_ids() -> set[str]:
    """The check ids the analyzers pass to ``Report.add``."""
    ids = set()
    for path in (ROOT / "src" / "repro" / "analysis").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and CHECK_ID.fullmatch(str(node.args[0].value))
            ):
                ids.add(node.args[0].value)
    return ids


def help_ids() -> set[str]:
    """The ids ``repro lint --help`` names; ``V001-V003`` is a range."""
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    text = " ".join(sub.choices["lint"].format_help().split())
    ids = set()
    for first, last in re.findall(r"([PRSV]\d{3})(?:-([PRSV]\d{3}))?", text):
        low = int(first[1:])
        high = int(last[1:]) if last else low
        ids |= {f"{first[0]}{n:03d}" for n in range(low, high + 1)}
    return ids


def test_every_list_of_check_ids_names_the_live_checks():
    live = emitted_ids()
    docs = (ROOT / "docs" / "analysis.md").read_text()
    headings = set(re.findall(r"^### ([PRSV]\d{3}) —", docs, re.MULTILINE))
    assert set(CHECK_DESCRIPTIONS) == live
    assert headings == live
    assert {spec.split(":")[0] for spec in VERIFY_SUPPRESSIONS} <= live
    assert help_ids() == {i for i in live if i[0] in "VS"}
