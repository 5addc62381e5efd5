"""Package exports resolved on first use (PEP 562).

A package whose public names live in its submodules declares one table,
name -> the module it is imported from, and binds what this module returns::

    _EXPORTS = {"Environment": ".core", "RngRegistry": ".rng"}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

``import repro.des`` then loads nothing but the package itself; the
first ``repro.des.Environment`` imports ``repro.des.core`` and stores the
class in the package's globals, so every later lookup is an ordinary
attribute read that never reaches ``__getattr__``.  Each process thus
imports only the layers it runs: ``repro serve`` never loads the
simulator, and a simulation never loads the REST server.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps each name to its module (relative to ``package``
    when it starts with a dot).  Any other name raises
    :class:`AttributeError`, which also lets ``from package import
    submodule`` fall through to the import system.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module, package), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__
