"""Exists/Test under change-log-driven matching: trace-equivalence vs
full re-match.

A dirty fact of a type referenced by ``Exists`` can open the gate for
activations that bind none of the dirty facts, so the rule must be
re-enumerated; ``Test`` guards must re-evaluate over fresh bindings.
These scenarios lock that in: every one runs on the join network and on
the reference session and must produce identical firing traces.
"""

import random

from repro.rules import Absent, Exists, Fact, Pattern, Rule, Test
from tests.rules.conftest import run_equivalent


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


class Alarm(Fact):
    def __init__(self, kind):
        self.kind = kind


def test_exists_gate_opens_on_insert():
    """An Exists gate satisfied mid-run must enable activations that bind
    none of the dirty facts — the full-re-match path."""

    def make_rules(trace):
        return [
            Rule(
                "alarmed order",
                when=[
                    Pattern(Order, "o", where=lambda o, b: o.status == "new"),
                    Exists(Alarm, where=lambda a, b: a.kind == "stockout"),
                ],
                then=lambda ctx: trace.append(("alarmed", ctx.o.oid)),
            )
        ]

    def scenario(s, trace):
        for i in range(3):
            s.insert(Order(i, "disk", 1))
        trace.append(("first", s.fire_all()))  # gate closed: nothing fires
        s.insert(Alarm("stockout"))
        trace.append(("second", s.fire_all()))  # gate open: all three fire

    trace = run_equivalent(make_rules, scenario)
    assert ("first", 0) in trace
    assert [t for t in trace if t[0] == "alarmed"] == [
        ("alarmed", 0), ("alarmed", 1), ("alarmed", 2)
    ]


def test_exists_gate_closes_on_retract():
    def make_rules(trace):
        def note(ctx):
            trace.append(("fired", ctx.o.oid))

        return [
            Rule(
                "gated",
                when=[Pattern(Order, "o"), Exists(Alarm)],
                then=note,
            )
        ]

    def scenario(s, trace):
        alarm = s.insert(Alarm("stockout"))
        s.insert(Order(0, "disk", 1))
        trace.append(("first", s.fire_all()))
        s.retract(alarm)
        s.insert(Order(1, "disk", 1))  # gate now closed: must not fire
        trace.append(("second", s.fire_all()))
        s.insert(Alarm("re-raised"))  # reopens for the unfired order
        trace.append(("third", s.fire_all()))

    trace = run_equivalent(make_rules, scenario)
    assert ("second", 0) in trace
    assert [t for t in trace if t[0] == "fired"] == [("fired", 0), ("fired", 1)]


def test_keyed_exists_stays_sound_across_updates():
    """Exists with a keys hint: updating the gating fact's keyed attribute
    must flip the gate identically on both sides."""

    def make_rules(trace):
        return [
            Rule(
                "has stock",
                when=[
                    Pattern(Order, "o", where=lambda o, b: o.status == "new"),
                    Exists(
                        Stock,
                        where=lambda st, b: st.item == b["o"].item and st.level > 0,
                        keys={"item": lambda b: b["o"].item},
                    ),
                ],
                then=lambda ctx: trace.append(("stocked", ctx.o.oid)),
            )
        ]

    def scenario(s, trace):
        stock = s.insert(Stock("disk", 0))
        s.insert(Order(0, "disk", 1))
        trace.append(("first", s.fire_all()))  # level 0: gate closed
        s.update(stock, level=5)
        trace.append(("second", s.fire_all()))  # gate opens via update

    trace = run_equivalent(make_rules, scenario)
    assert [t for t in trace if t[0] == "stocked"] == [("stocked", 0)]


def test_test_predicate_sees_updated_bindings():
    """A Test guard over two bindings must re-evaluate when either side's
    fact is updated (version bump → new activation key)."""

    def make_rules(trace):
        def fill(ctx):
            trace.append(("fill", ctx.o.oid, ctx.st.level))

        return [
            Rule(
                "fillable",
                when=[
                    Pattern(Order, "o", where=lambda o, b: o.status == "new"),
                    Pattern(Stock, "st", where=lambda st, b: st.item == b["o"].item),
                    Test(lambda b: b["st"].level >= b["o"].qty),
                ],
                then=fill,
            )
        ]

    def scenario(s, trace):
        stock = s.insert(Stock("disk", 1))
        s.insert(Order(0, "disk", 3))
        trace.append(("first", s.fire_all()))  # 1 < 3: Test fails
        s.update(stock, level=4)
        trace.append(("second", s.fire_all()))  # 4 >= 3: fires

    trace = run_equivalent(make_rules, scenario)
    assert [t for t in trace if t[0] == "fill"] == [("fill", 0, 4)]


def test_exists_absent_test_combination():
    def make_rules(trace):
        return [
            Rule(
                "escalate",
                when=[
                    Pattern(Order, "o", where=lambda o, b: o.status == "new"),
                    Exists(Stock, where=lambda st, b: st.item == b["o"].item),
                    Absent(Alarm, where=lambda a, b: a.kind == "muted"),
                    Test(lambda b: b["o"].qty > 1),
                ],
                then=lambda ctx: trace.append(("escalate", ctx.o.oid)),
            )
        ]

    def scenario(s, trace):
        s.insert(Stock("disk", 9))
        s.insert(Order(0, "disk", 2))
        s.insert(Order(1, "disk", 1))  # Test fails (qty 1)
        mute = s.insert(Alarm("muted"))
        trace.append(("first", s.fire_all()))  # Absent blocks everything
        s.retract(mute)
        trace.append(("second", s.fire_all()))  # only order 0 passes Test

    trace = run_equivalent(make_rules, scenario)
    assert [t for t in trace if t[0] == "escalate"] == [("escalate", 0)]


def test_randomized_op_sequences_stay_trace_equivalent():
    """Fuzz: random insert/update/retract interleavings with Exists and
    Test rules fire identically on both sides (fixed seed)."""

    def make_rules(trace):
        def consume(ctx):
            trace.append(("consume", ctx.o.oid))
            ctx.update(ctx.o, status="done")

        return [
            Rule(
                "consume stocked orders",
                salience=5,
                when=[
                    Pattern(Order, "o", where=lambda o, b: o.status == "new"),
                    Exists(
                        Stock,
                        where=lambda st, b: st.item == b["o"].item and st.level > 0,
                    ),
                ],
                then=consume,
            ),
            Rule(
                "big order audit",
                when=[
                    Pattern(Order, "o"),
                    Test(lambda b: b["o"].qty >= 4),
                ],
                then=lambda ctx: trace.append(("audit", ctx.o.oid)),
            ),
        ]

    for seed in range(6):
        rng_template = random.Random(seed)
        ops = []
        for step in range(30):
            ops.append(rng_template.randint(0, 3))

        def scenario(s, trace, ops=tuple(ops), seed=seed):
            rng = random.Random(1000 + seed)
            orders = []
            next_oid = 0
            for op in ops:
                if op == 0:
                    o = s.insert(Order(next_oid, rng.choice("ab"), rng.randint(1, 5)))
                    orders.append(o)
                    next_oid += 1
                elif op == 1:
                    s.insert(Stock(rng.choice("ab"), rng.randint(0, 3)))
                elif op == 2 and orders:
                    victim = orders.pop(rng.randrange(len(orders)))
                    if s.memory.contains(victim):
                        s.retract(victim)
                elif op == 3:
                    trace.append(("fired", s.fire_all()))
            trace.append(("final", s.fire_all()))

        run_equivalent(make_rules, scenario)
