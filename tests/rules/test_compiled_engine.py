"""Join-network equivalence vs the reference session.

``Session`` (join-network plans, memoized partial matches, lazy probes)
must produce the exact same firing sequence as the reference session's
full re-match — same rules, same binding tuples, same order — across
salience tiers, refraction, ``no_loop``, ``halt``, updates, retracts,
negations and keyed patterns.  Every scenario runs on both and the
traces are compared; a hypothesis property does the same over randomized
fact soups.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.rules.network as network_module
from repro.rules import (
    Absent,
    Collect,
    Fact,
    Pattern,
    Ref,
    Rule,
    compile_rules,
)
from tests.rules.conftest import new_session, run_equivalent


class Order(Fact):
    def __init__(self, oid, item, qty, status="new"):
        self.oid = oid
        self.item = item
        self.qty = qty
        self.status = status


class Stock(Fact):
    def __init__(self, item, level):
        self.item = item
        self.level = level


class Audit(Fact):
    def __init__(self, note):
        self.note = note


# --------------------------------------------------------------- scenarios
def test_join_rules_salience_and_fifo_order_match():
    def make_rules(trace):
        def fill(ctx):
            trace.append(("fill", ctx.o.oid, ctx.s.item))
            ctx.update(ctx.s, level=ctx.s.level - ctx.o.qty)
            ctx.update(ctx.o, status="filled")

        return [
            Rule(
                "audit",
                salience=1,
                when=[
                    Pattern(Order, "o", status="filled"),
                    Pattern(Stock, "s", item=Ref("o", "item")),
                ],
                then=lambda ctx: trace.append(("audit", ctx.o.oid, ctx.s.level)),
            ),
            Rule(
                "fill",
                salience=5,
                when=[
                    Pattern(Order, "o", status="new"),
                    Pattern(Stock, "s", where=lambda s, b: s.level >= b["o"].qty,
                            item=Ref("o", "item")),
                ],
                then=fill,
            ),
        ]

    def scenario(s, trace):
        s.insert(Stock("disk", 6))
        s.insert(Stock("cpu", 3))
        for i in range(5):
            s.insert(Order(i, "disk" if i % 2 else "cpu", 2))
        trace.append(("fired", s.fire_all()))
        s.insert(Order(10, "disk", 1))
        s.insert(Stock("ram", 9))
        trace.append(("fired2", s.fire_all()))

    trace = run_equivalent(make_rules, scenario)
    assert ("fill", 0, "cpu") in trace


def test_mixed_join_and_gate_rules_match():
    def make_rules(trace):
        return [
            Rule(
                "pair",
                salience=5,
                when=[
                    Pattern(Order, "o", where=lambda o, b: o.status == "new"),
                    Pattern(Stock, "s", where=lambda s, b: s.item == b["o"].item),
                ],
                then=lambda ctx: (
                    trace.append(("pair", ctx.o.oid)),
                    ctx.update(ctx.o, status="seen"),
                ),
            ),
            Rule(
                "alarm",
                salience=1,
                no_loop=True,
                when=[
                    Pattern(Stock, "s", where=lambda s, b: s.level < 3),
                    Absent(Audit, where=lambda a, b: a.note == f"low:{b['s'].item}"),
                ],
                then=lambda ctx: (
                    trace.append(("alarm", ctx.s.item)),
                    ctx.insert(Audit(f"low:{ctx.s.item}")),
                ),
            ),
            Rule(
                "census",
                salience=0,
                when=[Collect(Audit, "all", min_count=1)],
                then=lambda ctx: (
                    trace.append(("census", len(ctx.all))),
                    ctx.halt(),
                ),
            ),
        ]

    def scenario(s, trace):
        s.insert(Stock("disk", 2))
        s.insert(Stock("cpu", 1))
        s.insert(Order(1, "disk", 1))
        trace.append(("fired", s.fire_all()))
        s.retract(s.memory.facts_of(Order)[0])
        s.insert(Order(2, "cpu", 1))
        trace.append(("fired2", s.fire_all()))

    run_equivalent(make_rules, scenario)


def test_retract_during_firing_matches():
    def make_rules(trace):
        def consume(ctx):
            trace.append(("consume", ctx.o.oid))
            ctx.retract(ctx.o)

        return [
            Rule(
                "consume",
                when=[
                    Pattern(Order, "o"),
                    Pattern(Stock, "s", where=lambda s, b: s.item == b["o"].item),
                ],
                then=consume,
            ),
        ]

    def scenario(s, trace):
        s.insert(Stock("disk", 5))
        for i in range(4):
            s.insert(Order(i, "disk", 1))
        trace.append(("fired", s.fire_all()))

    trace = run_equivalent(make_rules, scenario)
    assert trace == [("consume", 0), ("consume", 1), ("consume", 2),
                     ("consume", 3), ("fired", 4)]


def _gated_rules(trace):
    """``churn`` updates ``level``, which neither gate reads."""
    return [
        Rule(
            "churn",
            salience=5,
            when=[Pattern(Stock, "s", where=lambda s, b: s.level > 0)],
            no_loop=True,
            then=lambda ctx: (
                trace.append(("churn", ctx.s.item)),
                ctx.update(ctx.s, level=ctx.s.level + 1),
            ),
        ),
        Rule(
            "stocked",
            salience=2,
            when=[
                Pattern(Order, "o", where=lambda o, b: o.status == "new"),
                Collect(Stock, "stocks", min_count=1,
                        where=lambda s, b: s.item == b["o"].item),
            ],
            then=lambda ctx: (
                trace.append(("stocked", ctx.o.oid)),
                ctx.update(ctx.o, status="shipped"),
            ),
        ),
        Rule(
            "gated",
            salience=1,
            when=[
                Pattern(Order, "o", where=lambda o, b: o.status == "new"),
                Absent(Stock, where=lambda s, b: s.item == b["o"].item),
            ],
            then=lambda ctx: (
                trace.append(("gated", ctx.o.oid)),
                ctx.update(ctx.o, status="handled"),
            ),
        ),
    ]


def _counting_rebuilds(monkeypatch):
    rebuilt = []
    rebuild = network_module.JoinNetwork._rebuild_delta

    def counting_rebuild(self, state):
        rebuilt.append(state.plan.rule.name)
        return rebuild(self, state)

    monkeypatch.setattr(network_module.JoinNetwork, "_rebuild_delta", counting_rebuild)
    return rebuilt


def test_derived_gate_reads_skip_rebuilds_and_preserve_equivalence(monkeypatch):
    """The compiler derives what a gate reads: the join network does not
    re-enumerate a rule for updates of attributes its gates never read —
    without changing a single firing.  Routing re-offers "gated" (no
    condition of it reads ``level``); "stocked" has a Collect gate, so
    it is always synced, and ``gate_reads`` is what spares it."""
    rebuilt = _counting_rebuilds(monkeypatch)

    def scenario(s, trace):
        s.insert(Stock("disk", 3))
        s.insert(Stock("cpu", 2))
        s.insert(Order(1, "ram", 1))
        trace.append(("fired", s.fire_all()))
        s.insert(Stock("ram", 1))  # now blocks future "ram" orders
        s.insert(Order(2, "ram", 1))
        trace.append(("fired2", s.fire_all()))

    plans = compile_rules(_gated_rules([])).plans
    assert [plan.gate_reads for plan in plans] == [(), ({"item"},), ({"item"},)]
    trace = run_equivalent(_gated_rules, scenario)
    assert trace == [
        ("churn", "disk"), ("churn", "cpu"), ("gated", 1), ("fired", 3),
        ("churn", "ram"), ("stocked", 2), ("fired2", 2),
    ]
    # each built once and never re-enumerated: the ram stock arrived
    # while no order was new, and no ``level`` update opened a gate
    assert rebuilt.count("stocked") == rebuilt.count("gated") == 1


def test_an_unread_update_of_a_collected_fact_re_derives_the_match(monkeypatch):
    """A stored candidate collects the disk stock when ``churn`` updates
    its ``level``: the Collect's membership stands, but the activation
    is a new one and the delta path cannot re-derive it, so the rule is
    re-enumerated."""
    rebuilt = _counting_rebuilds(monkeypatch)

    def scenario(s, trace):
        s.insert(Stock("disk", 3))
        s.insert(Order(1, "disk", 1))
        s.insert(Order(2, "ram", 1))
        trace.append(("fired", s.fire_all()))

    trace = run_equivalent(_gated_rules, scenario)
    assert trace == [("churn", "disk"), ("stocked", 1), ("gated", 2), ("fired", 3)]
    assert rebuilt.count("stocked") == 2


def test_compiled_plans_classify_rules():
    rules = [
        Rule("join", when=[
            Pattern(Order, "o"),
            Pattern(Stock, "s", item=Ref("o", "item")),
        ], then=lambda ctx: None),
        Rule("gated", when=[
            Pattern(Order, "o"),
            Absent(Audit),
        ], then=lambda ctx: None),
        Rule("single", when=[Pattern(Order, "o")], then=lambda ctx: None),
        Rule("unbound", when=[
            Pattern(Order, "o"),
            Pattern(Stock),
        ], then=lambda ctx: None),
    ]
    plans = {p.rule.name: p for p in compile_rules(rules).plans}
    assert plans["join"].kind == "join"
    assert plans["join"].positions[-1].key_attrs == ("item",)
    assert plans["gated"].kind == "delta"
    assert "Absent" in plans["gated"].reason
    assert plans["single"].kind == "delta"
    assert plans["unbound"].kind == "delta"
    assert "unbound" in plans["unbound"].reason
    assert all(plan.alpha is not None for plan in plans.values())
    gate_first = Rule("gate first", when=[Absent(Audit), Pattern(Order, "o")],
                      then=lambda ctx: None)
    assert [p.alpha for p in compile_rules([gate_first]).plans] == [None]


# ------------------------------------------------- randomized fact soups
_ITEMS = ("disk", "cpu", "ram")

_op = st.one_of(
    st.tuples(st.just("order"), st.sampled_from(_ITEMS), st.integers(1, 3)),
    st.tuples(st.just("stock"), st.sampled_from(_ITEMS), st.integers(0, 6)),
    st.tuples(st.just("restock"), st.sampled_from(_ITEMS), st.integers(0, 6)),
    st.tuples(st.just("cancel"), st.integers(0, 9)),
    st.tuples(st.just("fire"),),
)


def _soup_rules(trace):
    def fill(ctx):
        trace.append(("fill", ctx.o.oid, ctx.s.level))
        ctx.update(ctx.s, level=ctx.s.level - ctx.o.qty)
        ctx.update(ctx.o, status="filled")

    return [
        Rule(
            "fill",
            salience=5,
            when=[
                Pattern(Order, "o", status="new"),
                Pattern(Stock, "s", where=lambda s, b: s.level >= b["o"].qty,
                        item=Ref("o", "item")),
            ],
            then=fill,
        ),
        Rule(
            "starved",
            salience=1,
            no_loop=True,
            when=[
                Pattern(Order, "o", where=lambda o, b: o.status == "new"),
                Absent(Stock,
                       where=lambda s, b: s.item == b["o"].item
                       and s.level >= b["o"].qty),
            ],
            then=lambda ctx: trace.append(("starved", ctx.o.oid)),
        ),
    ]


def _run_soup(mode, ops):
    trace = []
    session = new_session(mode, _soup_rules(trace))
    oid = 0
    for op in ops:
        if op[0] == "order":
            session.insert(Order(oid, op[1], op[2]))
            oid += 1
        elif op[0] == "stock":
            session.insert(Stock(op[1], op[2]))
        elif op[0] == "restock":
            for fact in session.memory.facts_of(Stock):
                if fact.item == op[1]:
                    session.update(fact, level=op[2])
                    break
        elif op[0] == "cancel":
            orders = session.memory.facts_of(Order)
            if orders:
                session.retract(orders[op[1] % len(orders)])
        else:
            trace.append(("fired", session.fire_all()))
    trace.append(("fired", session.fire_all()))
    return trace


@settings(max_examples=60, deadline=None)
@given(st.lists(_op, max_size=30))
def test_compiled_matches_naive_on_random_fact_soups(ops):
    """Property: on any interleaving of inserts / updates / retracts /
    firings, the join network fires exactly what the naive full-rescan
    matcher fires, in the same order."""
    assert _run_soup("network", ops) == _run_soup("reference", ops)
