"""Every ``from repro… import …`` in the docs names things that import.

Snippets in the prose rot silently when a function is renamed or merged;
this resolves each one against the source tree.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted(
    [ROOT / "README.md", ROOT / "EXPERIMENTS.md", ROOT / "DESIGN.md",
     ROOT / "bench" / "README.md", *(ROOT / "docs").glob("*.md")]
)
_IMPORT = re.compile(
    r"^[ \t>]*from (repro[\w.]*) import (\([^)]*\)|[^\n]*)", re.MULTILINE
)


def doc_imports():
    for doc in DOCS:
        for match in _IMPORT.finditer(doc.read_text()):
            names = re.sub(r"#[^\n]*", "", match.group(2)).strip("()")
            for name in re.split(r"[,\s]+", names.strip()):
                if name:
                    yield pytest.param(
                        match.group(1), name.split(" as ")[0],
                        id=f"{doc.relative_to(ROOT)}:{match.group(1)}.{name}",
                    )


def test_the_docs_carry_import_snippets():
    assert len(list(doc_imports())) >= 20


@pytest.mark.parametrize("module, name", doc_imports())
def test_doc_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), (
        f"docs say `from {module} import {name}`, which does not import"
    )
