"""Substrate shared by the rule-set linter and the verifier.

* **Randomized fact synthesis** — :class:`FactFactory` builds instances of
  arbitrary :class:`~repro.rules.facts.Fact` subclasses from their
  ``__init__`` signatures, then randomly perturbs attributes.  The value
  pools are seeded from the string/number constants harvested out of the
  rule set's own guard bytecode (so ``status`` really does take values
  like ``"new"`` and ``"in_progress"`` that the guards compare against),
  plus name-based heuristics for urls/hosts/ids.  :func:`random_memory`
  fills a probe working memory from them.

* **One bytecode reader** — :func:`_symbolic_events` walks a function's
  compiled code with a symbolic stack and reports the calls,
  comparisons, containment tests and attribute accesses it sees.
  :func:`guard_attribute_refs`, :func:`action_effects` and
  :func:`guard_constraint_domains` are filters over those events, and
  :func:`helper_codes` is the one walk over the module-level helpers a
  function calls.  The reader is deliberately conservative: anything it
  cannot follow becomes an unknown token, so it under-reports rather
  than inventing references.

* **One per-rule summary** — :func:`rule_io` reads a rule once into a
  :class:`RuleIO` (condition types, bindings, attribute reads, action
  effects, over-approximate writes) that the linter's static checks and
  the verifier's interaction graph both consume.
"""

from __future__ import annotations

import dis
import inspect
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence, Type

from repro.rules.engine import Rule
from repro.rules.facts import Fact, WorkingMemory
from repro.rules.patterns import Collect, Pattern

__all__ = [
    "harvest_constants",
    "fact_schema",
    "signature_of",
    "FactFactory",
    "entry_defaults",
    "snapshot_fact",
    "clone_fact",
    "snapshot_memory",
    "clone_memory",
    "rule_set_functions",
    "probe_universe",
    "random_memory",
    "helper_codes",
    "callable_names",
    "referenced_fact_types",
    "guard_attribute_refs",
    "ActionEffects",
    "action_effects",
    "guard_constraint_domains",
    "ElementIO",
    "RuleIO",
    "rule_io",
]


# --------------------------------------------------------------------------
# Constant harvesting
# --------------------------------------------------------------------------
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


# --------------------------------------------------------------------------
# Fact construction
# --------------------------------------------------------------------------
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

    def make(self, fact_type: Type[Fact], entry: bool = False) -> Optional[Fact]:
        """Build one instance, or None if no argument synthesis succeeds.

        An ``entry`` instance is built the way a service entry point
        builds one: only the required constructor parameters are
        synthesized and every defaulted one keeps its default, so all
        internal bookkeeping attributes start pristine."""
        signature = signature_of(fact_type)
        if signature is None:
            return None
        for attempt in range(8):
            kwargs = {}
            for name, param in signature.parameters.items():
                if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
                    continue
                if param.default is not param.empty and (entry or self.rng.random() < 0.4):
                    continue  # rely on the default (an entry always does)
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


# --------------------------------------------------------------------------
# Entry defaults: the pristine value of each bookkeeping attribute
# --------------------------------------------------------------------------
def entry_defaults(fact_type: Type[Fact], factory: "FactFactory") -> dict[str, Any]:
    """attr -> value an entry-shaped instance of ``fact_type`` starts with.

    Covers defaulted constructor parameters and attributes ``__init__``
    sets unconditionally (ledger counters, status machines).  Attributes
    derived from required parameters (hosts parsed out of urls, etc.) are
    excluded by building three samples with different random inputs and
    keeping only the attributes whose values agree.
    """
    samples = [factory.make(fact_type, entry=True) for _ in range(3)]
    if any(sample is None for sample in samples):
        return {}
    first, *rest = samples
    signature = signature_of(fact_type)
    required = {
        name
        for name, param in (signature.parameters.items() if signature else ())
        if param.default is param.empty
        and param.kind not in (param.VAR_POSITIONAL, param.VAR_KEYWORD)
    }
    # Strings sliced out of required inputs (hosts parsed from urls) can
    # coincide across samples by rng luck; anything that substrings a
    # required value is derived, not a default.
    required_strings = [
        v for n, v in vars(first).items() if n in required and isinstance(v, str)
    ]
    defaults: dict[str, Any] = {}
    for name, value in vars(first).items():
        if name in required:
            continue
        if isinstance(value, str) and any(value and value in rv for rv in required_strings):
            continue
        try:
            stable = all(getattr(s, name, _MISSING) == value for s in rest)
        except Exception:
            stable = False
        if stable:
            defaults[name] = value
    return defaults


_MISSING = object()


# --------------------------------------------------------------------------
# Fact snapshot / clone (probe-session caching and counterexample replay)
# --------------------------------------------------------------------------
def _copy_value(value: Any) -> Any:
    if isinstance(value, (set, frozenset)):
        return set(value)
    if isinstance(value, list):
        return [_copy_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _copy_value(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(_copy_value(v) for v in value)
    return value


def snapshot_fact(fact: Fact) -> tuple[Type[Fact], dict]:
    """(type, attribute dict) capturing one fact; values are deep-copied
    far enough (sets/lists/dicts) that mutating the original or a clone
    cannot leak through."""
    return type(fact), {name: _copy_value(v) for name, v in vars(fact).items()}


def clone_fact(spec: tuple[Type[Fact], dict]) -> Fact:
    """Rebuild a fact from a :func:`snapshot_fact` spec without calling its
    constructor (constructors validate/derive; snapshots are literal)."""
    fact_type, attrs = spec
    fact = object.__new__(fact_type)
    fact.__dict__.update({name: _copy_value(v) for name, v in attrs.items()})
    return fact


def snapshot_memory(memory) -> list[tuple[Type[Fact], dict]]:
    """Snapshot every live fact in fact-id (arrival) order."""
    return [snapshot_fact(fact) for fact in memory]


def clone_memory(soup: Iterable[tuple[Type[Fact], dict]]):
    """A fresh WorkingMemory holding clones of the snapshotted facts,
    inserted in snapshot order (fact ids restart from 1)."""
    memory = WorkingMemory()
    for spec in soup:
        memory.insert(clone_fact(spec))
    return memory


# --------------------------------------------------------------------------
# Probe soups
# --------------------------------------------------------------------------
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


# --------------------------------------------------------------------------
# Module-level helpers a function calls
# --------------------------------------------------------------------------
def helper_codes(func: Callable, depth: int = 2) -> list:
    """Code objects of ``func`` and of the module-level functions it
    calls, followed ``depth`` levels, nested code (lambdas,
    comprehensions) included; each function is visited once."""
    codes: list = []
    seen: set[int] = set()

    def visit(f: Callable, level: int) -> None:
        code = getattr(f, "__code__", None)
        if code is None or id(code) in seen:
            return
        seen.add(id(code))
        codes.extend(_code_objects(code))
        if level <= 0:
            return
        module_globals = getattr(f, "__globals__", {})
        for name in code.co_names:
            target = module_globals.get(name)
            if callable(target) and getattr(target, "__code__", None) is not None:
                visit(target, level - 1)

    visit(func, depth)
    return codes


def callable_names(func: Callable, depth: int = 2) -> set[str]:
    """All names referenced by ``func``'s code, nested code objects, and
    module-level functions it calls (followed ``depth`` levels)."""
    return {name for code in helper_codes(func, depth) for name in code.co_names}


def referenced_fact_types(func: Callable, depth: int = 2) -> set[Type[Fact]]:
    """Fact subclasses a callable (or its callees) references by name."""
    module_globals = getattr(func, "__globals__", {})
    types: set[Type[Fact]] = set()
    for name in callable_names(func, depth):
        target = module_globals.get(name)
        if isinstance(target, type) and issubclass(target, Fact):
            types.add(target)
    return types


def _scan_exact(func: Optional[Callable]) -> bool:
    """True when the reader sees *every* attribute ``func`` reads.

    A function that calls a module-level helper hands its facts to code
    :func:`guard_attribute_refs` does not follow, so its read set must be
    treated as "anything".  (Builtins and methods are fine — they cannot
    reach back into working-memory facts we track.)
    """
    if func is None:
        return True
    if getattr(func, "__code__", None) is None:
        return False
    module_globals = getattr(func, "__globals__", {})
    for name in callable_names(func):
        target = module_globals.get(name)
        if (
            callable(target)
            and not isinstance(target, type)
            and getattr(target, "__code__", None) is not None
        ):
            return False
    return True


# --------------------------------------------------------------------------
# The bytecode reader
# --------------------------------------------------------------------------
# Tokens are tagged tuples describing the best-effort provenance of a
# stack slot:  ("ctx",) the action context parameter, ("cand",) a guard's
# candidate fact, ("bindings",) a guard's bindings dict, ("const", v),
# ("param", name), ("attr", base, name), ("item", base, key) a constant
# subscript, ("global", name), ("inst", cls), ("elem", iterable) an item
# drawn from iterating a token, ("null",), ("unknown",).  The evaluator
# walks bytecode linearly; branches can misalign the model stack, but
# statement boundaries (POP_TOP / empty stack) resynchronize it, and every
# consumer treats an unresolved token as "could be anything" — degradation
# is conservative, never inventive.
_UNKNOWN = ("unknown",)
_NULL = ("null",)
_CAND = ("cand",)
_BINDINGS = ("bindings",)

_LOAD_FAST_OPS = {"LOAD_FAST", "LOAD_FAST_CHECK", "LOAD_FAST_AND_CLEAR"}
_ATTR_OPS = {"LOAD_ATTR", "LOAD_METHOD", "STORE_ATTR"}
#: 3.12 folds LOAD_METHOD into LOAD_ATTR, flagged by the low bit of its arg
_METHOD_FLAG = sys.version_info >= (3, 12)


class _Event:
    """One observed operation: a call, a comparison, a containment test,
    or an attribute access."""

    __slots__ = ("kind", "target", "args", "kwargs", "op")

    def __init__(self, kind, target=None, args=(), kwargs=None, op=None):
        self.kind = kind          # "call" | "cmp" | "contains" | "attr"
        self.target = target      # callable token / left operand / owner
        self.args = list(args)    # arg tokens / (right operand,)
        self.kwargs = kwargs or {}
        self.op = op              # comparison operator / attribute name


def _symbolic_events(
    func: Callable,
    env: dict[str, tuple],
    depth: int = 3,
    _seen: Optional[set] = None,
) -> tuple[list[_Event], bool]:
    """(events, or_logic): calls/comparisons/attribute accesses observed in
    ``func``'s code, with parameters substituted from ``env`` and
    module-level helper calls inlined ``depth`` levels.  ``or_logic``
    reports whether the code uses OR-shaped control flow (so conjunctive
    constraint readers must bail).
    """
    code = getattr(func, "__code__", None)
    if code is None:
        return [], True
    if _seen is None:
        _seen = set()
    if id(code) in _seen:
        return [], False
    _seen.add(id(code))
    module_globals = getattr(func, "__globals__", {})

    events: list[_Event] = []
    or_logic = False
    stack: list[tuple] = []
    kwnames: tuple = ()

    def push(token):
        stack.append(token)

    def pop():
        return stack.pop() if stack else _UNKNOWN

    for instr in dis.get_instructions(code):
        op = instr.opname
        if op in _ATTR_OPS:
            # the owner is on top for a load and for a store alike
            events.append(_Event("attr", stack[-1] if stack else _UNKNOWN, op=instr.argval))
        if op in _LOAD_FAST_OPS:
            push(env.get(instr.argval, ("param", instr.argval)))
        elif op == "LOAD_CONST":
            push(("const", instr.argval))
        elif op == "LOAD_GLOBAL":
            if instr.arg is not None and instr.arg & 1:
                push(_NULL)
            push(("global", instr.argval))
        elif op in ("LOAD_DEREF", "LOAD_CLASSDEREF"):
            push(("param", instr.argval))
        elif op in ("LOAD_ATTR", "LOAD_METHOD"):
            push(("attr", pop(), instr.argval))
            if op == "LOAD_METHOD" or (_METHOD_FLAG and instr.arg & 1):
                # layout: callable, then self (the receiver is implicit
                # in the attr token, so a placeholder keeps CALL aligned)
                push(_NULL)
        elif op == "KW_NAMES":
            # dis leaves KW_NAMES' argval unresolved on 3.11: read co_consts.
            names = instr.argval
            if not isinstance(names, tuple) and instr.arg is not None:
                try:
                    names = code.co_consts[instr.arg]
                except IndexError:
                    names = ()
            kwnames = names if isinstance(names, tuple) else ()
        elif op == "BINARY_SUBSCR":
            index = pop()
            base = pop()
            if index[0] == "const" and isinstance(index[1], str):
                push(("item", base, index[1]))
            else:
                push(_UNKNOWN)
        elif op in ("PRECALL", "NOP", "RESUME", "CACHE"):
            continue
        elif op == "CALL":
            argc = instr.arg or 0
            args = [pop() for _ in range(argc)][::-1]
            second = pop()   # self / NULL placeholder
            first = pop()    # callable (or NULL before a plain global)
            if first == _NULL:
                callee = second
            else:
                callee = first
                if second != _NULL:
                    args = [second] + args
            kwargs: dict[str, tuple] = {}
            if kwnames:
                n = len(kwnames)
                kwargs = dict(zip(kwnames, args[-n:]))
                args = args[:-n]
            kwnames = ()
            events.append(_Event("call", callee, args, kwargs))
            result: tuple = _UNKNOWN
            if callee[0] == "global":
                target = module_globals.get(callee[1])
                if isinstance(target, type) and issubclass(target, Fact):
                    result = ("inst", target)
                elif (
                    depth > 0
                    and callable(target)
                    and getattr(target, "__code__", None) is not None
                ):
                    helper_code = target.__code__
                    names = helper_code.co_varnames[: helper_code.co_argcount]
                    helper_env = dict(zip(names, args))
                    sub_events, sub_or = _symbolic_events(
                        target, helper_env, depth - 1, _seen
                    )
                    events.extend(sub_events)
                    or_logic = or_logic or sub_or
            push(result)
        elif op == "COMPARE_OP":
            right = pop()
            left = pop()
            events.append(_Event("cmp", left, (right,), op=instr.argval))
            push(_UNKNOWN)
        elif op == "CONTAINS_OP":
            right = pop()
            left = pop()
            if instr.argval == 0 or instr.arg == 0:
                events.append(_Event("contains", left, (right,)))
            push(_UNKNOWN)
        elif op == "STORE_FAST":
            env[instr.argval] = pop()
        elif op == "GET_ITER":
            push(("iter", pop()))
        elif op == "FOR_ITER":
            top = stack[-1] if stack else _UNKNOWN
            source = top[1] if top[0] == "iter" else top
            push(("elem", source))
        elif op == "POP_TOP":
            pop()
        elif op in ("UNARY_NOT",):
            or_logic = True  # negation flips constraint polarity: bail
            pop()
            push(_UNKNOWN)
        elif "IF_TRUE" in op:
            # 3.11 spells the statement form POP_JUMP_FORWARD_IF_TRUE
            or_logic = True
        else:
            # Generic opcode: keep the stack depth roughly aligned, and
            # clobber the top token — a mis-tracked token would be worse
            # than an unknown one.
            try:
                effect = dis.stack_effect(instr.opcode, instr.arg)
            except ValueError:
                effect = 0
            if effect < 0:
                for _ in range(-effect):
                    pop()
            else:
                for _ in range(effect):
                    push(_UNKNOWN)
            if stack:
                stack[-1] = _UNKNOWN
    return events, or_logic


def guard_attribute_refs(func: Callable, candidate: bool) -> set[tuple[Optional[str], str]]:
    """``(binding, attribute)`` pairs ``func``'s own code reads (module-level
    helpers it calls are not followed; see :func:`_scan_exact`).

    With ``candidate``, ``func`` is a guard: its first parameter is the
    candidate fact (reported as binding ``None``) and its second the
    bindings dict.  Otherwise (key functions) the first
    parameter is the bindings dict.  A read off ``bindings["name"]`` is
    reported as binding ``name``; locals assigned from either are followed.
    """
    code = getattr(func, "__code__", None)
    if code is None:
        return set()
    params = code.co_varnames[: code.co_argcount]
    env: dict[str, tuple] = {}
    if candidate and params:
        env[params[0]] = _CAND
    for name in params[1:2] if candidate else params[:1]:
        env[name] = _BINDINGS
    events, _ = _symbolic_events(func, env, depth=0)
    refs: set[tuple[Optional[str], str]] = set()
    for event in events:
        if event.kind != "attr":
            continue
        owner = event.target
        if owner == _CAND:
            refs.add((None, event.op))
        elif owner[0] == "item" and owner[1] == _BINDINGS:
            refs.add((owner[2], event.op))
    return refs


class ActionEffects:
    """What a rule action does to working memory, by fact type/attribute.

    ``updates`` maps fact type -> {attr: set of known written constants,
    or None when some written value is opaque}.  ``opaque`` is True when
    a working-memory operation's target could not be resolved — consumers
    must then over-approximate (with :attr:`RuleIO.approx_written_types`).
    """

    __slots__ = ("inserts", "updates", "retracts", "opaque")

    def __init__(self) -> None:
        self.inserts: set[Type[Fact]] = set()
        self.updates: dict[Type[Fact], dict[str, Optional[set]]] = {}
        self.retracts: set[Type[Fact]] = set()
        self.opaque = False

    def updated_attrs(self, fact_type: Type[Fact]) -> set[str]:
        return set(self.updates.get(fact_type, ()))

    def written_values(self, fact_type: Type[Fact], attr: str) -> Optional[set]:
        """Known constants written to (type, attr); None = unknown value."""
        return self.updates.get(fact_type, {}).get(attr)


def _token_fact_type(
    token: tuple, bound_types: dict[str, Type[Fact]]
) -> Optional[Type[Fact]]:
    """Resolve a token to the fact type it denotes, if determinable."""
    if token[0] == "inst":
        return token[1]
    if token[0] == "attr" and token[1] == ("ctx",):
        return bound_types.get(token[2])
    if token[0] == "elem":
        return _token_fact_type(token[1], bound_types)
    if token[0] == "item" and token[1][0] == "attr":
        # bindings dict subscript inside helpers: b["t"]
        return bound_types.get(token[2])
    return None


def action_effects(
    then: Callable, bound_types: dict[str, Type[Fact]], depth: int = 3
) -> ActionEffects:
    """Scan a rule action for its working-memory effects.

    ``bound_types`` maps binding names to fact types (Pattern and Collect
    bindings), so ``ctx.update(ctx.t, ...)`` resolves to a concrete type.
    """
    effects = ActionEffects()
    code = getattr(then, "__code__", None)
    if code is None:
        effects.opaque = True
        return effects
    params = code.co_varnames[: code.co_argcount]
    env: dict[str, tuple] = {params[0]: ("ctx",)} if params else {}
    events, _ = _symbolic_events(then, env, depth)
    for event in events:
        if event.kind != "call":
            continue
        callee = event.target
        if callee[0] != "attr" or callee[1] != ("ctx",):
            continue
        method = callee[2]
        if method == "insert":
            target = event.args[0] if event.args else _UNKNOWN
            fact_type = _token_fact_type(target, bound_types)
            if fact_type is None:
                effects.opaque = True
            else:
                effects.inserts.add(fact_type)
        elif method == "update":
            target = event.args[0] if event.args else _UNKNOWN
            fact_type = _token_fact_type(target, bound_types)
            if fact_type is None:
                effects.opaque = True
                continue
            attrs = effects.updates.setdefault(fact_type, {})
            for attr, value in event.kwargs.items():
                known = attrs.get(attr, set())
                if known is None:
                    continue
                if value[0] == "const":
                    known.add(value[1])
                    attrs[attr] = known
                else:
                    attrs[attr] = None
            if not event.kwargs:
                effects.opaque = True
        elif method == "retract":
            target = event.args[0] if event.args else _UNKNOWN
            fact_type = _token_fact_type(target, bound_types)
            if fact_type is None:
                effects.opaque = True
            else:
                effects.retracts.add(fact_type)
    return effects


def guard_constraint_domains(
    func: Optional[Callable], depth: int = 2
) -> Optional[dict[str, frozenset]]:
    """Necessary equality constraints a guard imposes on its candidate fact.

    Returns ``{attr: allowed values}`` — the guard can only accept a fact
    whose ``attr`` is in the set — derived from ``==`` comparisons and
    ``in (const, ...)`` tests against the guard's first parameter, with
    module-level helper calls inlined.  Returns ``None`` when the guard
    uses OR-shaped control flow or negation (no conjunctive reading) and
    ``{}`` when no constraints are derivable.  Used by the verifier to
    prune infeasible rule-interaction edges; an empty result just means
    "no pruning", so under-reporting is safe.
    """
    if func is None:
        return {}
    code = getattr(func, "__code__", None)
    if code is None:
        return {}
    params = code.co_varnames[: code.co_argcount]
    if not params:
        return {}
    events, or_logic = _symbolic_events(func, {params[0]: _CAND}, depth)
    if or_logic:
        return None

    def candidate_attr(token: tuple) -> Optional[str]:
        if token[0] == "attr" and token[1] == _CAND:
            return token[2]
        return None

    domains: dict[str, frozenset] = {}

    def constrain(attr: str, values: Iterable) -> None:
        allowed = frozenset(values)
        if attr in domains:
            allowed = domains[attr] & allowed
        domains[attr] = allowed

    for event in events:
        if event.kind == "cmp" and event.op == "==":
            left, right = event.target, event.args[0]
            attr = candidate_attr(left)
            const = right if right[0] == "const" else None
            if attr is None:
                attr = candidate_attr(right)
                const = left if left[0] == "const" else None
            if attr is not None and const is not None:
                try:
                    constrain(attr, (const[1],))
                except TypeError:
                    pass  # unhashable constant
        elif event.kind == "contains":
            attr = candidate_attr(event.target)
            container = event.args[0]
            if (
                attr is not None
                and container[0] == "const"
                and isinstance(container[1], (tuple, frozenset))
            ):
                try:
                    constrain(attr, container[1])
                except TypeError:
                    pass
    return domains


# --------------------------------------------------------------------------
# The per-rule summary
# --------------------------------------------------------------------------
@dataclass
class ElementIO:
    """One typed condition element of a rule, with its guard summary."""

    index: int
    kind: str                       #: "pattern" | "absent" | "exists" | "collect"
    fact_type: Type[Fact]
    positive: bool                  #: needs a live fact to let the rule through
    binding: Optional[str]
    #: necessary equality constraints the guard imposes on the candidate
    #: (None = guard has no conjunctive reading; {} = no constraints known)
    domains: Optional[dict[str, frozenset]]
    #: candidate attributes the guard/keys read (None = unknown / inexact)
    reads: Optional[frozenset]


@dataclass
class RuleIO:
    """Static read/write summary of one rule."""

    rule: Rule
    order: int
    elements: list[ElementIO]
    #: Pattern binding -> fact type (a Collect binds a list, not a fact)
    bindings: dict[str, Type[Fact]]
    effects: ActionEffects
    #: fact type -> attrs the rule reads anywhere (guards, keys fns, Tests);
    #: None value = "may read any attribute of this type"
    reads: dict[Type[Fact], Optional[set]]
    #: types the action may insert or mutate: Fact classes it names, plus
    #: every condition type when it calls insert/update/retract (an
    #: over-approximation, consulted where ``effects`` is opaque)
    approx_written_types: set

    @property
    def name(self) -> str:
        return self.rule.name

    @property
    def salience(self) -> int:
        return self.rule.salience

    @property
    def condition_types(self) -> set:
        return {e.fact_type for e in self.elements}

    @property
    def positive_types(self) -> set:
        """Types the rule needs at least one live fact of to ever activate."""
        return {e.fact_type for e in self.elements if e.positive}

    def elements_of(self, fact_type: Type[Fact]) -> list[ElementIO]:
        """Elements whose declared type is related to ``fact_type``."""
        return [
            e
            for e in self.elements
            if issubclass(fact_type, e.fact_type)
            or issubclass(e.fact_type, fact_type)
        ]

    def updated_types(self) -> set:
        out = set(self.effects.updates)
        if self.effects.opaque:
            out |= self.approx_written_types
        return out

    def updated_attrs(self, fact_type: Type[Fact]) -> Optional[set]:
        """Attrs the action may write on ``fact_type``; None = unknown/all."""
        if self.effects.opaque and fact_type in self.approx_written_types:
            return None
        return self.effects.updated_attrs(fact_type)


def rule_io(rule: Rule, order: int) -> RuleIO:
    """Build the static read/write summary for one rule."""
    bindings = {
        e.binding: e.fact_type for e in rule.when if isinstance(e, Pattern) and e.binding
    }
    bound_types = {
        e.binding: e.fact_type
        for e in rule.when
        if isinstance(e, (Pattern, Collect)) and e.binding
    }
    elements: list[ElementIO] = []
    reads: dict[Type[Fact], Optional[set]] = {}

    def note_reads(fact_type: Type[Fact], attrs: Optional[Iterable]) -> None:
        if attrs is None:
            reads[fact_type] = None
            return
        known = reads.get(fact_type, set())
        if known is None:
            return
        known.update(attrs)
        reads[fact_type] = known

    def scan(func: Callable, candidate: bool) -> Optional[set]:
        """Note what ``func`` reads off bound facts; return what it reads
        off the candidate (None = anything)."""
        own: set = set()
        for binding, attr in guard_attribute_refs(func, candidate):
            if binding is None:
                own.add(attr)
            elif binding in bindings:
                note_reads(bindings[binding], (attr,))
        if _scan_exact(func):
            return own
        # a helper handed the bindings dict may read any bound fact
        for fact_type in bound_types.values():
            note_reads(fact_type, None)
        return None

    for index, element in enumerate(rule.when):
        cand_reads = scan(element.where, True) if element.where is not None else set()
        if element.keys:
            # keyed lookup reads the key attrs on the candidate and runs
            # arbitrary fns over the bindings for the probe values.
            if cand_reads is not None:
                cand_reads.update(element.keys)
            for fn in element.keys.values():
                scan(fn, False)
        note_reads(element.fact_type, cand_reads)
        elements.append(
            ElementIO(
                index=index,
                kind=type(element).__name__.lower(),
                fact_type=element.fact_type,
                positive=isinstance(element, Pattern)
                or (isinstance(element, Collect) and element.min_count > 0),
                binding=getattr(element, "binding", None),
                domains=guard_constraint_domains(element.where),
                reads=frozenset(cand_reads) if cand_reads is not None else None,
            )
        )

    approx = set(referenced_fact_types(rule.then))
    if {"update", "retract", "insert"} & callable_names(rule.then):
        approx |= {e.fact_type for e in elements}
    return RuleIO(
        rule, order, elements, bindings, action_effects(rule.then, bound_types), reads, approx
    )
