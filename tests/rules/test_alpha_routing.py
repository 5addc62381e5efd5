"""Alpha-routed change dispatch is sound, exact and leaves nothing behind.

The join network hands a mutation only to the rules it can concern (see
``JoinNetwork._route_changes``).  Whatever the fact soup, after every
batch of mutations a long-lived ``Session`` must

* fire exactly what a freshly built reference session fires, in order;
* hold, per rule, exactly the fids passing the first pattern's guard in
  its position-0 alpha memory;
* reference no fid that has left the working memory.

The pack covers position-0 guards that flip under updates, a later
position with constant keys, the batch-duplicate shape (position 0 and a
later position of one type), a three-position join, ``Absent`` and
``Collect`` gates, a lone pattern, and a rule that opens with a
``Collect`` gate (not alpha-routed).  Three routing mutants must each
break a property, and so must a rule read set missing an attribute its
guard reads (updates of unread attributes are re-offered, not re-derived),
a gate read set missing an attribute its guard reads, a drop made while
routing for a type that also fills a later position or a gate, and a
route table that decides read-gates by fact type alone.
"""

import ast
import inspect
import textwrap

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.rules.compiler as compiler_module
import repro.rules.network as network_module
from repro.rules import Absent, Collect, Fact, Pattern, Ref, Rule, Session, WorkingMemory
from repro.rules.patterns import _check
from repro.rules.reference import ReferenceSession

ITEMS = ("disk", "cpu")


class Order(Fact):
    def __init__(self, oid, item, qty):
        self.oid = oid
        self.item = item
        self.qty = qty
        self.status = "new"


class Stock(Fact):
    def __init__(self, item, level):
        self.item = item
        self.level = level
        self.state = "open"
        self.note = 0  # read by no rule


def soup_rules(trace):
    def fill(ctx):
        trace.append(("fill", ctx.o.oid, ctx.s.level))
        ctx.update(ctx.s, level=ctx.s.level - ctx.o.qty)
        ctx.update(ctx.o, status="filled")

    def drop_duplicate(ctx):
        trace.append(("dup", ctx.o.oid, ctx.d.oid))
        ctx.update(ctx.d, status="dup")

    return [
        Rule(
            "dup", salience=9,
            when=[
                Pattern(Order, "o", status="new"),
                Pattern(Order, "d",
                        where=lambda d, b: d.status == "new" and d.oid > b["o"].oid
                        and d.qty == b["o"].qty,
                        item=Ref("o", "item")),
            ],
            then=drop_duplicate,
        ),
        Rule(
            "fill", salience=8,
            when=[
                Pattern(Order, "o", status="new"),
                Pattern(Stock, "s", where=lambda s, b: s.level >= b["o"].qty,
                        item=Ref("o", "item"), state="open"),
            ],
            then=fill,
        ),
        Rule(
            "backlog", salience=7,
            when=[
                Pattern(Order, "o", status="filled"),
                Pattern(Stock, "s", item=Ref("o", "item")),
                Pattern(Order, "n", where=lambda n, b: n.status == "new",
                        item=Ref("o", "item")),
            ],
            then=lambda ctx: trace.append(("backlog", ctx.o.oid, ctx.s.level, ctx.n.oid)),
        ),
        Rule(
            "starved", salience=6, no_loop=True,
            when=[
                Pattern(Order, "o", where=lambda o, b: o.status == "new"),
                Absent(Stock,
                       where=lambda s, b: s.item == b["o"].item and s.level >= b["o"].qty),
            ],
            then=lambda ctx: trace.append(("starved", ctx.o.oid)),
        ),
        Rule(
            "tally", salience=5,
            when=[
                Pattern(Stock, "s", where=lambda s, b: s.state == "open"),
                Collect(Order, "filled", min_count=1,
                        where=lambda o, b: o.status == "filled" and o.item == b["s"].item),
            ],
            then=lambda ctx: trace.append(
                ("tally", ctx.s.item, sorted(o.oid for o in ctx.filled))
            ),
        ),
        Rule(
            "big", salience=4,
            when=[Pattern(Order, "o", where=lambda o, b: o.status == "new" and o.qty >= 3)],
            then=lambda ctx: trace.append(("big", ctx.o.oid)),
        ),
        Rule(
            "empty", salience=3,
            when=[
                Collect(Order, "orders"),
                Pattern(Stock, "s",
                        where=lambda s, b: b["_globals"]["audit"] and s.level == 0),
            ],
            then=lambda ctx: trace.append(("empty", ctx.s.item)),
        ),
    ]


def mutate(memory, op, orders):
    """Apply one soup operation straight to the memory (the session must
    notice it from the change log alone)."""
    kind = op[0]
    live = [o for o in orders if memory.contains(o)]
    stocks = memory.facts_of(Stock)
    if kind == "order":
        orders.append(memory.insert(Order(len(orders), op[1], op[2])))
    elif kind == "stock":
        memory.insert(Stock(op[1], op[2]))
    elif kind in ("restock", "flip", "note"):
        for stock in stocks:
            if stock.item != op[1]:
                continue
            if kind == "restock":
                memory.update(stock, level=op[2])
            elif kind == "note":  # re-offered, never re-derived
                memory.update(stock, note=stock.note + 1)
            else:  # in and out of a later position's constant key
                memory.update(stock, state="closed" if stock.state == "open" else "open")
            break
    elif kind == "unstock" and stocks:
        memory.retract(stocks[op[1] % len(stocks)])
    elif kind == "cancel" and live:
        memory.retract(live[op[1] % len(live)])
    elif kind == "bounce" and live:  # same object, new fid
        order = live[op[1] % len(live)]
        memory.retract(order)
        memory.insert(order)
    elif kind == "requeue" and live:  # position-0 guards flip back
        memory.update(live[op[1] % len(live)], status="new")


def network_problems(session):
    """Violations of "alpha memories exact, no dead fid referenced, only
    stored candidates spent"."""
    network, memory = session.network, session.memory
    problems = []
    for name, state in network._states.items():
        head = state.plan.alpha
        if head is not None:
            exact = {
                memory.fid_of(f) for f in memory.facts_of(head.fact_type)
                if head.element.holds(f, network.seed)
                and _check(head.element.where, f, network.seed)
            }
            if state.alpha != exact:
                problems.append(f"{name}: alpha {sorted(state.alpha)} != {sorted(exact)}")
        held = set(state.by_fid).union(
            state.probes, *(store.by_fid for store in state.stores[1:])
        )
        dead = sorted(fid for fid in held if memory.fact_with_fid(fid) is None)
        if dead:
            problems.append(f"{name}: references retracted fids {dead}")
    stale = [cand.key_fids for cand, state in network._spent.items()
             if state.cands.get(cand.key_fids) is not cand]
    if stale:
        problems.append(f"spent candidates no rule stores: {stale}")
    return problems


def run_soup(ops, routed):
    """The firing trace of the soup: on one long-lived session
    (``routed``), or on a reference session built anew for every batch."""
    trace = []
    rules = soup_rules(trace)
    memory = WorkingMemory()
    session = Session(rules, memory=memory, globals={"audit": True})
    orders = []
    for op in ops + [("fire",)]:
        if op[0] != "fire":
            mutate(memory, op, orders)
        elif routed:
            session.reset()
            trace.append(("fired", session.fire_all()))
            assert network_problems(session) == []
        else:
            fresh = ReferenceSession(rules, memory=memory, globals={"audit": True})
            trace.append(("fired", fresh.fire_all()))
    return trace


def check_soup(ops):
    assert run_soup(ops, routed=True) == run_soup(ops, routed=False)


_op = st.one_of(
    st.tuples(st.just("order"), st.sampled_from(ITEMS), st.integers(1, 3)),
    st.tuples(st.just("stock"), st.sampled_from(ITEMS), st.integers(0, 5)),
    st.tuples(st.just("restock"), st.sampled_from(ITEMS), st.integers(0, 5)),
    st.tuples(st.just("flip"), st.sampled_from(ITEMS)),
    st.tuples(st.just("note"), st.sampled_from(ITEMS)),
    st.tuples(st.just("unstock"), st.integers(0, 3)),
    st.tuples(st.just("cancel"), st.integers(0, 9)),
    st.tuples(st.just("bounce"), st.integers(0, 9)),
    st.tuples(st.just("requeue"), st.integers(0, 9)),
    st.tuples(st.just("fire"),),
)


# A restock after an evaluation that left an order waiting: "fill" reads
# the stock's ``level``, so the update must re-derive it.
READ_GATED_WITNESS = [
    ("stock", "disk", 0), ("order", "disk", 2), ("note", "disk"), ("fire",),
    ("note", "disk"), ("restock", "disk", 5), ("fire",),
]

# An order the closed stock cannot fill but still covers, then a restock
# to 0: ``starved``'s Absent gate reads ``level``, so it opens.
GATE_WITNESS = [
    ("stock", "disk", 5), ("flip", "disk"), ("order", "disk", 3), ("fire",),
    ("restock", "disk", 0), ("fire",),
]

# Two orders filled, then one requeued out of ``backlog``'s position-0
# alpha memory while the stock is too low to fill it again: ``backlog``
# must join it at position 2.
REQUEUE_WITNESS = [
    ("stock", "disk", 4), ("order", "disk", 2), ("order", "disk", 1), ("fire",),
    ("requeue", 0), ("fire",),
]


@example(ops=READ_GATED_WITNESS)
@example(ops=GATE_WITNESS)
@example(ops=REQUEUE_WITNESS)
@settings(max_examples=250, deadline=None)
@given(ops=st.lists(_op, max_size=40))
def test_routed_network_fires_what_seed_fires_and_stays_exact(ops):
    check_soup(ops)


# An order waits for stock and is filled, duplicates arrive, a filled order
# is bounced to a new fid and requeued, the stock leaves its constant key
# and comes back, a late order gets a probe in "backlog", the filled orders
# go (its alpha memory empties) and only then the probed order.
WITNESS = [
    ("order", "disk", 2), ("fire",), ("stock", "disk", 5), ("fire",),
    ("order", "disk", 2), ("order", "disk", 2), ("order", "cpu", 3), ("fire",),
    ("bounce", 0), ("requeue", 0), ("fire",), ("flip", "disk"), ("order", "disk", 1),
    ("fire",), ("flip", "disk"), ("fire",), ("restock", "disk", 0), ("fire",),
    ("order", "disk", 1), ("fire",), ("cancel", 1), ("cancel", 3), ("fire",),
    ("cancel", 3), ("fire",), ("cancel", 0), ("cancel", 0), ("cancel", 0), ("fire",),
    ("unstock", 0), ("fire",),
]


def test_witness_scenario_holds():
    check_soup(WITNESS)


class _Sticky(set):
    """An alpha memory nothing ever leaves."""

    def discard(self, fid):
        pass


class _Hollow(set):
    """An alpha memory that always claims to be empty."""

    def __bool__(self):
        return False


def _ignore_references(state):
    state.refs = ()


def _alpha_as(kind):
    def mutate_state(state):
        if state.alpha is not None:
            state.alpha = kind(state.alpha)
    return mutate_state


@pytest.mark.parametrize(
    "mutation",
    [_ignore_references, _alpha_as(_Sticky), _alpha_as(_Hollow)],
    ids=["ignore-fid-is-referenced", "never-discard-from-alpha", "alpha-reads-empty"],
)
def test_each_routing_mutant_is_caught(monkeypatch, mutation):
    build = network_module.JoinNetwork._build_rule

    def mutant_build(self, state):
        build(self, state)
        mutation(state)

    monkeypatch.setattr(network_module.JoinNetwork, "_build_rule", mutant_build)
    with pytest.raises(AssertionError):
        check_soup(WITNESS)


def test_a_read_set_missing_a_read_attribute_is_caught(monkeypatch):
    """``fill`` reads the stock ``level``; with it dropped from the plan's
    read set a restock is re-offered instead of re-derived, and the
    parity with the reference breaks."""
    element_reads = compiler_module._element_reads

    def short_reads(rule):
        reads = element_reads(rule)
        return tuple(r - {"level"} for r in reads) if rule.name == "fill" else reads

    monkeypatch.setattr(compiler_module, "_element_reads", short_reads)
    with pytest.raises(AssertionError):
        test_routed_network_fires_what_seed_fires_and_stays_exact()


def test_a_gate_read_set_missing_a_read_attribute_is_caught(monkeypatch):
    """``starved``'s Absent gate reads the stock ``level``; with it dropped
    from the gate's read set (the rule's own set keeps it, so the restock
    is still synced) the gate is not re-checked and the starved order
    never fires."""
    init = compiler_module.RulePlan.__init__

    def short_gate_reads(self, rule, *args):
        init(self, rule, *args)
        if rule.name == "starved":
            self.gate_reads = tuple(r - {"level"} for r in self.gate_reads)

    monkeypatch.setattr(compiler_module.RulePlan, "__init__", short_gate_reads)
    with pytest.raises(AssertionError):
        test_routed_network_fires_what_seed_fires_and_stays_exact()


def _drop_whenever_alpha_is_left():
    """``_route_changes`` with the test guarding the drop made while
    routing replaced by True: a fact leaving a rule's alpha memory is
    dropped and never synced, even where its type fills a later position
    or a gate."""
    method = network_module.JoinNetwork._route_changes
    tree = ast.parse(textwrap.dedent(inspect.getsource(method)))
    guards = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and ast.unparse(node.test) == "later is None"
        and any(
            isinstance(call, ast.Call)
            and getattr(call.func, "attr", None) == "_drop_routed"
            for stmt in node.body for call in ast.walk(stmt)
        )
    ]
    assert len(guards) == 1, "the drop-while-routing guard moved"
    guards[0].test = ast.Constant(True)
    namespace: dict = {}
    code = compile(ast.fix_missing_locations(tree), network_module.__file__, "exec")
    exec(code, vars(network_module), namespace)
    return namespace[method.__name__]


def test_a_drop_while_routing_for_a_type_fed_later_is_caught(monkeypatch):
    """``backlog`` binds a new Order at position 2: an Order requeued out
    of its position-0 alpha memory must still be joined there."""
    check_soup(REQUEUE_WITNESS)
    monkeypatch.setattr(
        network_module.JoinNetwork, "_route_changes", _drop_whenever_alpha_is_left()
    )
    with pytest.raises(AssertionError):
        check_soup(REQUEUE_WITNESS)


class _TypeKeyed(dict):
    """A route table that ignores the changed-attribute half of its keys."""

    def get(self, key, default=None):
        return super().get(key[0], default)

    def __setitem__(self, key, value):
        super().__setitem__(key[0], value)


def test_read_gates_decided_per_fact_type_alone_are_caught(monkeypatch):
    """The first routed Stock change of the read-gated witness is a
    ``note`` update; a table keyed by type then re-offers the restock that
    ``fill`` must re-derive."""
    build_all = network_module.JoinNetwork._build_all

    def mutant_build_all(self):
        build_all(self)
        self._routes = _TypeKeyed()

    check_soup(READ_GATED_WITNESS)
    monkeypatch.setattr(network_module.JoinNetwork, "_build_all", mutant_build_all)
    with pytest.raises(AssertionError):
        check_soup(READ_GATED_WITNESS)
