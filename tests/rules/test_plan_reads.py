"""``RulePlan.reads`` covers every attribute a rule's conditions read,
and ``RulePlan.gate_reads`` every attribute each gate reads.

The join network re-offers a rule's stored candidates, instead of
re-deriving them, for an update that changes no attribute in the rule's
read set (``docs/engine.md``, "Read-gated updates"), and does not
re-enumerate a gated rule for an update no gate reads.  A name missing
from a set silently leaves matches stale, so the sets are checked three
ways:

* an oracle: every shipped composition's guards and key functions run
  over randomized fact soups while fact instances record each attribute
  read; the reads must fall inside the rule's set and each gate's,
  wherever it is not None, and the shipped gate sets are pinned;
* scanner mutants: guards that reach state a name scan cannot bound
  (``getattr``, ``operator.attrgetter``, a fact property or method, a
  ``_globals`` object's method, a function fetched from the bindings, an
  import) must get ``reads is None``;
* bookkeeping: a thousand evaluations that each update an unread
  attribute fire what a full-rescan reference fires, never sync a rule,
  and leave empty heaps and no stale spent candidate behind.
"""

import itertools
import operator
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro.rules.network as network_module
from repro.analysis.verifier import verify_compositions
from repro.rules import Fact, Pattern, Rule, Session, WorkingMemory, compile_rules
from repro.rules.reference import ReferenceSession

from tests.rules.soups import (
    FactFactory,
    fact_schema,
    harvest_constants,
    probe_universe,
    random_memory,
    rule_set_functions,
)


# ------------------------------------------------------------------ oracle
class _Recorder:
    """Attribute reads on fact instances while ``active``."""

    def __init__(self):
        self.active = False
        self.names = set()


def _recording(recorder, fn):
    def wrapped(*args):
        recorder.active = True
        try:
            return fn(*args)
        finally:
            recorder.active = False
    return wrapped


def _bindings_for(rule, index, memory, session_globals, rng):
    """Up to four binding dicts for condition ``index``: every earlier
    bound pattern takes a fact of its type drawn from ``memory``."""
    names = [
        (el.binding, memory.facts_of(el.fact_type))
        for el in rule.when[:index]
        if isinstance(el, Pattern) and el.binding
    ]
    if any(not facts for _name, facts in names):
        return []
    choices = [
        [(name, fact) for fact in rng.sample(facts, min(2, len(facts)))]
        for name, facts in names
    ]
    return [
        {"_globals": session_globals, **dict(combo)}
        for combo in itertools.islice(itertools.product(*choices), 4)
    ]


def _recorded_reads(rule, memory, session_globals, rng, recorder):
    """Evaluate every guard and key function of ``rule`` over ``memory``;
    per condition element, the attribute names they read off facts."""
    out = []
    for index, element in enumerate(rule.when):
        recorder.names = set()
        out.append(recorder.names)
        for bindings in _bindings_for(rule, index, memory, session_globals, rng):
            for fn in (element.keys or {}).values():
                try:
                    _recording(recorder, fn)(bindings)
                except Exception:
                    pass
            if element.where is None:
                continue
            for fact in memory.facts_of(element.fact_type):
                try:
                    _recording(recorder, element.where)(fact, bindings)
                except Exception:
                    pass
    return out


def test_recorded_guard_reads_stay_inside_the_plan_read_set(monkeypatch):
    compositions = verify_compositions()
    plans = {
        name: compile_rules(rules).plans
        for name, (rules, _globals) in compositions.items()
    }
    recorder = _Recorder()
    getattribute = object.__getattribute__

    def recording_getattribute(self, name):
        if recorder.active and name != "__class__":
            recorder.names.add(name)
        return getattribute(self, name)

    monkeypatch.setattr(Fact, "__getattribute__", recording_getattribute)
    checked, gates_checked = set(), set()
    for name, (rules, session_globals) in compositions.items():
        universe = probe_universe(rules)
        pools = harvest_constants(rule_set_functions(rules))
        for seed in range(3):
            rng = random.Random(seed)
            memory = random_memory(universe, FactFactory(rng, pools))
            for plan in plans[name]:
                rule = plan.rule
                per_element = _recorded_reads(rule, memory, session_globals, rng, recorder)
                if plan.reads is not None:
                    read = set().union(*per_element)
                    assert read <= plan.reads, (
                        f"{name}: {rule.name!r} read {sorted(read - plan.reads)} "
                        f"outside its read set"
                    )
                    if read:
                        checked.add(rule.name)
                gate_read = [
                    read for element, read in zip(rule.when, per_element)
                    if not isinstance(element, Pattern)
                ]
                for gate, (reads, read) in enumerate(zip(plan.gate_reads, gate_read)):
                    if reads is None:
                        continue
                    assert read <= reads, (
                        f"{name}: gate {gate} of {rule.name!r} read "
                        f"{sorted(read - reads)} outside its read set"
                    )
                    if read:
                        gates_checked.add((rule.name, gate))
    # The oracle saw reads of most shipped rules and of every shipped
    # gate, not a vacuous pass.
    assert len(checked) >= 30
    assert len(gates_checked) == len(SHIPPED_GATE_READS)


#: per shipped gate, the attributes of its fact type that its guard and
#: key functions consult
SHIPPED_GATE_READS = {
    "Create a resource for a new transfer to track the resulting staged file":
        {"lfn", "dst_url"},
    "Generate a unique group ID for a source and destination host pair":
        {"src_host", "dst_host"},
    "Insert new cleanups into policy memory for resources that no longer "
    "have transfers using their staged files":
        {"dst_url", "users"},
    "Retrieve the parallel streams threshold defined for a single cluster "
    "between a source and destination host":
        {"src_host", "dst_host", "cluster"},
    "Select eviction victims on a site over its byte budget":
        {"site", "pin_count"},
}


def test_shipped_gate_read_sets_hold_what_each_gate_consults():
    """A derived gate set may hold names that are no attribute of the
    gate's fact type (the cleanup gate reads ``len`` and the cleanup's
    ``url``); no update changes those, so the type's attributes in the
    set are what gates the rebuilds."""
    factory = FactFactory(random.Random(0))
    found = {}
    for rules, _globals in verify_compositions().values():
        for plan in compile_rules(rules).plans:
            gates = [el for el in plan.rule.when if not isinstance(el, Pattern)]
            for gate, reads in zip(gates, plan.gate_reads):
                assert reads is not None, plan.rule.name
                found[plan.rule.name] = reads & fact_schema(gate.fact_type, factory)
    assert found == SHIPPED_GATE_READS


def test_the_rule_engine_does_not_load_the_analyzers():
    src = Path(__file__).resolve().parents[2] / "src"
    script = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        "import repro.rules, repro.rules.compiler, repro.rules.network; "
        "loaded = [m for m in sys.modules if m.startswith('repro.analysis')]; "
        "assert not loaded, loaded"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


# ------------------------------------------------------------------ scanner
class Item(Fact):
    def __init__(self, name, size=0):
        self.name = name
        self.size = size
        self.status = "open"
        self.note = 0

    @property
    def label(self):
        return f"{self.name}:{self.status}"

    def is_open(self):
        return self.status == "open"


class Tag(Fact):
    def __init__(self, name):
        self.name = name


def _reads_of(where):
    rule = Rule(
        "probe",
        when=[
            Pattern(Tag, "g"),
            Pattern(Item, "t", where=where, keys={"name": lambda b: b["g"].name}),
        ],
        then=lambda ctx: None,
    )
    return compile_rules([rule]).plans[0].reads


def _imports_inside(t, b):
    import math
    return t.size > math.pi


@pytest.mark.parametrize(
    "where",
    [
        lambda t, b: getattr(t, "size") > 1,
        lambda t, b: operator.attrgetter("size")(t) > 1,
        lambda t, b: t.label == "x:open",
        lambda t, b: t.is_open,
        lambda t, b: b["_globals"]["policy"].allows(t),
        lambda t, b: b["_globals"]["check"](t),
        _imports_inside,
    ],
    ids=["getattr", "attrgetter", "fact-property", "fact-method", "globals-method",
         "globals-function", "import"],
)
def test_a_guard_the_scan_cannot_bound_has_no_read_set(where):
    assert _reads_of(where) is None


class Point(Fact):
    def __init__(self, x):
        self.x = x

    def __eq__(self, other):  # reads ``x``, which no guard names
        return isinstance(other, Point) and self.x == other.x

    __hash__ = Fact.__hash__


def test_a_fact_class_that_runs_code_in_an_expression_has_no_read_set():
    rule = Rule(
        "same", when=[Pattern(Point, "p"), Pattern(Point, "q", where=lambda q, b: q == b["p"])],
        then=lambda ctx: None,
    )
    assert compile_rules([rule]).plans[0].reads is None


def test_nested_code_and_keys_land_in_the_read_set():
    reads = _reads_of(lambda t, b: any(t.size == n for n in b["_globals"]["sizes"]))
    assert {"size", "name"} <= reads
    assert "note" not in reads and "status" not in reads
    reads = _reads_of(lambda t, b: any(x == t.name for x in (1, 2)))
    assert "name" in reads and "size" not in reads
    # a generator expression that reads off the candidate
    assert "lfn" in _reads_of(lambda t, b: sum(1 for _ in range(2) if t.lfn))
    # a key attribute, even when no function names it
    rule = Rule("keyed", when=[Pattern(Item, "t", keys={"size": lambda b: 3})],
                then=lambda ctx: None)
    assert compile_rules([rule]).plans[0].reads == {"size"}


# ------------------------------------------------------------- bookkeeping
def bookkeeping_rules(trace):
    def touch(ctx):
        trace.append(("touch", ctx.i.name, ctx.i.note))
        ctx.update(ctx.i, note=ctx.i.note + 1)

    return [
        Rule(
            "watch", salience=2,
            when=[
                Pattern(Item, "i", where=lambda i, b: i.status == "open"),
                Pattern(Tag, "g", where=lambda g, b: g.name == b["i"].name,
                        keys={"name": lambda b: b["i"].name}),
            ],
            then=lambda ctx: trace.append(("watch", ctx.i.name, ctx.i.note)),
        ),
        # Its own ``note`` updates are suppressed by no_loop; each one
        # bumps the item's version, so "watch" fires again.
        Rule(
            "touch", salience=1, no_loop=True,
            when=[Pattern(Item, "i", where=lambda i, b: i.size > 0)],
            then=touch,
        ),
    ]


def test_updates_of_unread_attributes_reoffer_and_fire_like_the_reference(monkeypatch):
    syncs = [0]
    sync_rule = network_module.JoinNetwork._sync_rule

    def counting_sync(self, state, dirty):
        syncs[0] += 1
        return sync_rule(self, state, dirty)

    monkeypatch.setattr(network_module.JoinNetwork, "_sync_rule", counting_sync)
    trace = []
    rules = bookkeeping_rules(trace)
    assert all(plan.reads is not None and "note" not in plan.reads
               for plan in compile_rules(rules).plans)
    memory = WorkingMemory()
    items = [memory.insert(Item(f"i{k}", size=k % 3)) for k in range(6)]
    for k in range(3):
        memory.insert(Tag(f"i{k}"))
    session = Session(rules, memory=memory)
    evaluations, expected = [], []
    for evaluation in range(1000):
        if evaluation:
            item = items[evaluation % len(items)]
            memory.update(item, note=item.note + 1)
        # The reference: a full rescan over a twin of the memory.
        twin = _copy(memory)
        session.reset()
        if evaluation:
            session.network._route_changes()
            queued = [id(entry[3][2]) for heap in session.network._heaps for entry in heap]
            assert len(queued) == len(set(queued))  # one heap entry per candidate
        session.fire_all()
        evaluations.append(trace[:])
        del trace[:]
        ReferenceSession(rules, memory=twin).fire_all()
        expected.append(trace[:])
        del trace[:]
        if not evaluation:
            syncs[0] = 0  # the first evaluation built the network
        network = session.network
        assert all(not heap for heap in network._heaps)
        assert len(network._spent) <= network.candidate_count()
        assert all(cand.alive and state.cands.get(cand.key_fids) is cand
                   for cand, state in network._spent.items())
    assert syncs[0] == 0  # every update took the read-gated path
    assert evaluations == expected
    # "touch" bumps an item's version: "watch" fires on it again, while
    # "touch" stays suppressed under no_loop
    assert evaluations[0] == [
        ("watch", "i0", 0), ("watch", "i1", 0), ("watch", "i2", 0),
        ("touch", "i1", 0), ("watch", "i1", 1), ("touch", "i2", 0),
        ("watch", "i2", 1), ("touch", "i4", 0), ("touch", "i5", 0),
    ]


def _copy(memory):
    """A twin of ``memory`` with the same fids, versions and modifiers,
    so the reference sees the same activations."""
    twin = WorkingMemory()
    for fact in memory:
        clone = type(fact).__new__(type(fact))
        clone.__dict__.update(vars(fact))
        twin.insert(clone)
    return twin
