"""Every call that ``benchmarks/`` makes into ``repro`` binds to its target.

The paper suite runs only in CI's ``paper`` job (minutes), so an API change
that drops a keyword (``metrics=`` once left ``run_concurrent_workflows``)
would otherwise pass tier-1.  This walks each ``benchmarks/*.py`` and binds
every call of a name imported from ``repro`` against that name's signature,
without running the benchmark.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def repro_names(tree: ast.Module) -> dict:
    """Local name -> object for each ``from repro... import name``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def target(call: ast.Call, names: dict):
    """The ``repro`` object a call reaches (``name(...)`` or ``module.name(...)``)."""
    func = call.func
    if isinstance(func, ast.Name):
        return names.get(func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        module = names.get(func.value.id)
        if inspect.ismodule(module):
            return getattr(module, func.attr, None)
    return None


def unbound_calls(source: str) -> list[str]:
    tree = ast.parse(source)
    names = repro_names(tree)
    problems = []
    for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
        obj = target(call, names)
        if obj is None or not callable(obj):
            continue
        try:
            signature = inspect.signature(obj)
        except (TypeError, ValueError):  # a builtin without a signature
            continue
        keywords = {kw.arg: None for kw in call.keywords if kw.arg is not None}
        splat = any(isinstance(a, ast.Starred) for a in call.args) or len(keywords) < len(call.keywords)
        try:
            if splat:  # only the spelled keywords can be checked
                signature.bind_partial(**keywords)
            else:
                signature.bind(*[None] * len(call.args), **keywords)
        except TypeError as error:
            problems.append(f"line {call.lineno}: {ast.unparse(call.func)}(): {error}")
    return problems


@pytest.mark.parametrize("path", sorted(BENCHMARKS.glob("*.py")), ids=lambda p: p.name)
def test_every_repro_call_in_the_benchmarks_binds(path):
    assert unbound_calls(path.read_text()) == []


def test_a_dropped_keyword_is_reported():
    source = (
        "from repro.experiments.runner import run_concurrent_workflows\n"
        "run_concurrent_workflows(cfg, workflows, stagger=10.0, metrics=registry)\n"
    )
    [problem] = unbound_calls(source)
    assert "run_concurrent_workflows" in problem and "metrics" in problem
