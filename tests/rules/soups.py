"""Random fact soups over a rule set's own fact types and constants.

:class:`FactFactory` builds instances of any :class:`~repro.rules.facts.Fact`
subclass from its ``__init__`` signature, then randomly perturbs their
attributes.  The value pools are the string and number constants
harvested from the rules' own guard and action bytecode
(:func:`harvest_constants`), so ``status`` really takes values like
``"new"`` and ``"in_progress"`` that the guards compare against, plus
name-based heuristics for urls, hosts and ids.  :func:`random_memory`
fills a working memory from them.  The read-set oracle of
``test_plan_reads.py`` and the codec round trips of
``tests/policy/test_journal_codec.py`` draw their facts here.
"""

from __future__ import annotations

import inspect
import random
from typing import Any, Callable, Iterable, Optional, Sequence, Type

from repro.rules.engine import Rule
from repro.rules.facts import Fact, WorkingMemory


def _code_objects(code) -> Iterable:
    """``code`` and every code object nested in it (lambdas, comprehensions)."""
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _code_objects(const)


def harvest_constants(functions: Iterable[Callable]) -> dict[str, list]:
    """Collect literal constants from the given callables' bytecode.

    Returns pools keyed by kind: ``"str"``, ``"int"``, ``"float"`` —
    the raw material for randomized fact attributes.
    """
    strings: set[str] = set()
    ints: set[int] = set()
    floats: set[float] = set()
    for func in functions:
        code = getattr(func, "__code__", None)
        if code is None:
            continue
        for nested in _code_objects(code):
            for const in nested.co_consts:
                if isinstance(const, str):
                    if const and len(const) <= 32 and "\n" not in const:
                        strings.add(const)
                elif isinstance(const, bool):
                    continue
                elif isinstance(const, int):
                    if -1000 <= const <= 1000:
                        ints.add(const)
                elif isinstance(const, float):
                    floats.add(const)
    return {
        "str": sorted(strings),
        "int": sorted(ints),
        "float": sorted(floats),
    }


#: per-type constructor signatures — inspect.signature dominates the cost
#: of randomized fact synthesis, and fact classes never change mid-run.
_SIGNATURES: dict[type, Optional[inspect.Signature]] = {}


def signature_of(fact_type: Type[Fact]) -> Optional[inspect.Signature]:
    """Cached constructor signature of a fact class (None if unretrievable)."""
    try:
        return _SIGNATURES[fact_type]
    except KeyError:
        try:
            signature: Optional[inspect.Signature] = inspect.signature(fact_type)
        except (TypeError, ValueError):
            signature = None
        _SIGNATURES[fact_type] = signature
        return signature


_HOSTS = ["alpha-host", "beta-host"]
_LFNS = ["f1.dat", "f2.dat", "f3.dat"]
_WORKFLOWS = ["wf-a", "wf-b"]
_JOBS = ["job1", "job2"]


def fact_schema(fact_type: Type[Fact], factory: "FactFactory") -> set[str]:
    """Attribute names an instance of ``fact_type`` carries.

    Derived by building a sample instance (instance ``__dict__``) plus any
    non-callable class attributes — the set a guard may legally reference.
    """
    sample = factory.make(fact_type)
    attrs: set[str] = set()
    if sample is not None:
        attrs.update(vars(sample))
    for klass in fact_type.__mro__:
        if klass in (object, Fact):
            continue
        for name, value in vars(klass).items():
            if not name.startswith("_") and not callable(value):
                attrs.add(name)
    return attrs


class FactFactory:
    """Randomized constructor/perturber for Fact subclasses."""

    def __init__(self, rng: random.Random, pools: Optional[dict[str, list]] = None):
        self.rng = rng
        pools = pools or {"str": [], "int": [], "float": []}
        self.str_pool = list(pools.get("str", [])) or ["x"]
        self.int_pool = sorted(set(pools.get("int", [])) | {0, 1, 2, 5})
        self.float_pool = sorted(set(pools.get("float", [])) | {0.0, 1.0, 10.0})

    # -- constructor argument synthesis ------------------------------------
    def _value_for(self, name: str, attempt: int) -> Any:
        rng = self.rng
        lname = name.lower()
        if "url" in lname:
            return f"gsiftp://{rng.choice(_HOSTS)}/scratch/{rng.choice(_LFNS)}"
        if "host" in lname:
            return rng.choice(_HOSTS)
        if "direction" in lname:
            return rng.choice(["src", "dst", "any"])
        if "workflow" in lname:
            return rng.choice(_WORKFLOWS)
        if "job" in lname:
            return rng.choice(_JOBS)
        if "lfn" in lname or "file" in lname:
            return rng.choice(_LFNS)
        if "cluster" in lname:
            return rng.choice(["c0", "c1"])
        if "status" in lname or "reason" in lname or "note" in lname or "item" in lname:
            return rng.choice(self.str_pool)
        if "bytes" in lname or "size" in lname or "now" in lname or "level" in lname:
            return abs(rng.choice(self.float_pool)) + rng.random()
        if "streams" in lname or "count" in lname or "threshold" in lname:
            return rng.randint(1, 8)
        if (
            lname.endswith("id")
            or lname in ("tid", "cid", "oid", "priority", "batch", "qty", "value")
        ):
            return rng.randint(0, 9)
        # Fallback ladder: plain values most constructors tolerate.
        return [0, "x", 1.0, None][attempt % 4]

    def make(self, fact_type: Type[Fact]) -> Optional[Fact]:
        """Build one instance, or None if no argument synthesis succeeds."""
        signature = signature_of(fact_type)
        if signature is None:
            return None
        for attempt in range(8):
            kwargs = {}
            for name, param in signature.parameters.items():
                if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
                    continue
                if param.default is not param.empty and self.rng.random() < 0.4:
                    continue  # rely on the default
                kwargs[name] = self._value_for(name, attempt)
            try:
                return fact_type(**kwargs)
            except Exception:
                continue
        return None

    # -- perturbation -------------------------------------------------------
    def perturb(self, fact: Fact, rate: float = 0.6) -> Fact:
        """Randomly reassign instance attributes from the value pools."""
        rng = self.rng
        for name, value in list(vars(fact).items()):
            if rng.random() > rate:
                continue
            if isinstance(value, bool):
                setattr(fact, name, rng.random() < 0.5)
            elif isinstance(value, set):
                population = _WORKFLOWS + self.str_pool[:2]
                size = rng.randint(0, min(2, len(population)))
                setattr(fact, name, set(rng.sample(population, size)))
            elif isinstance(value, str):
                setattr(fact, name, rng.choice(self.str_pool))
            elif isinstance(value, float):
                setattr(fact, name, abs(rng.choice(self.float_pool)))
            elif isinstance(value, int):
                setattr(fact, name, rng.choice(self.int_pool))
            elif value is None:
                # Optional slots: occasionally fill with a small number so
                # guards over lease deadlines / stream counts see both arms.
                if rng.random() < 0.5:
                    setattr(fact, name, rng.choice([1, 2.5, 4]))
        return fact

    def make_random(self, fact_type: Type[Fact]) -> Optional[Fact]:
        fact = self.make(fact_type)
        if fact is None:
            return None
        return self.perturb(fact)


def rule_set_functions(rules: Sequence[Rule]) -> list[Callable]:
    """Every action, guard and key function of ``rules``
    — where :func:`harvest_constants` finds the value pools."""
    funcs: list[Callable] = []
    for rule in rules:
        funcs.append(rule.then)
        for element in rule.when:
            if element.where is not None:
                funcs.append(element.where)
            if element.keys:
                funcs.extend(element.keys.values())
    return funcs


def probe_universe(rules: Sequence[Rule]) -> list[Type[Fact]]:
    """The fact types ``rules`` match on, sorted by name."""
    types = {e.fact_type for rule in rules for e in rule.when}
    return sorted(types, key=lambda t: t.__name__)


def random_memory(
    universe: Sequence[Type[Fact]], factory: FactFactory, per_type: int = 4
) -> WorkingMemory:
    """A probe memory: one to ``per_type`` perturbed facts of each type."""
    memory = WorkingMemory()
    for fact_type in universe:
        for _ in range(factory.rng.randint(1, per_type)):
            fact = factory.make_random(fact_type)
            if fact is not None:
                memory.insert(fact)
    return memory
