"""Equivalence tests: change-log-driven matching vs the full re-match.

The join network must produce the exact same firing sequence as the
reference session — same rules, same binding tuples, same order — across
salience tiers, refraction, ``no_loop``, updates, retracts, negations and
keyed patterns.  Every scenario here runs on both and is compared
(``run_equivalent`` in ``conftest.py``).
"""

from repro.rules import Absent, Collect, Fact, Pattern, Rule
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


class Audit(Fact):
    def __init__(self, note):
        self.note = note


def test_salience_and_fifo_order_match():
    def make_rules(trace):
        return [
            Rule(
                "low",
                salience=1,
                when=[Pattern(Order, "o")],
                then=lambda ctx: trace.append(("low", ctx.o.oid)),
            ),
            Rule(
                "high",
                salience=10,
                when=[Pattern(Order, "o")],
                then=lambda ctx: trace.append(("high", ctx.o.oid)),
            ),
        ]

    def scenario(s, trace):
        for i in range(4):
            s.insert(Order(i, "disk", 1))
        trace.append(("fired", s.fire_all()))

    trace = run_equivalent(make_rules, scenario)
    # All high-salience activations drain before any low-salience one.
    assert trace[:4] == [("high", i) for i in range(4)]
    assert trace[4:8] == [("low", i) for i in range(4)]


def test_mid_firing_inserts_and_updates_match():
    def make_rules(trace):
        def restock(ctx):
            trace.append(("restock", ctx.o.oid))
            ctx.update(ctx.stock, level=ctx.stock.level - ctx.o.qty)
            ctx.update(ctx.o, status="filled")

        def alarm(ctx):
            trace.append(("alarm", ctx.s.item))
            ctx.insert(Audit(f"low:{ctx.s.item}"))

        return [
            Rule(
                "fill",
                salience=5,
                when=[
                    Pattern(Order, "o", where=lambda o, b: o.status == "new",
                            keys={"status": lambda b: "new"}),
                    Pattern(Stock, "stock",
                            where=lambda s, b: s.item == b["o"].item
                            and s.level >= b["o"].qty,
                            keys={"item": lambda b: b["o"].item}),
                ],
                then=restock,
            ),
            Rule(
                "low-stock",
                salience=1,
                no_loop=True,
                when=[
                    Pattern(Stock, "s", where=lambda s, b: s.level < 3),
                    Absent(Audit, where=lambda a, b: a.note == f"low:{b['s'].item}"),
                ],
                then=alarm,
            ),
        ]

    def scenario(s, trace):
        s.insert(Stock("disk", 10))
        s.insert(Stock("cpu", 2))
        for i in range(5):
            s.insert(Order(i, "disk" if i % 2 else "cpu", 2))
        trace.append(("fired", s.fire_all()))
        # Second wave against the already-warm memory.
        s.insert(Order(10, "disk", 1))
        trace.append(("fired2", s.fire_all()))

    run_equivalent(make_rules, scenario)


def test_retract_and_absent_gate_match():
    def make_rules(trace):
        def cancel(ctx):
            trace.append(("cancel", ctx.o.oid))
            ctx.retract(ctx.o)

        return [
            Rule(
                "cancel-unstocked",
                when=[
                    Pattern(Order, "o"),
                    Absent(Stock, where=lambda s, b: s.item == b["o"].item),
                ],
                then=cancel,
            ),
            Rule(
                "note-existing",
                salience=-1,
                when=[
                    Collect(Order, "orders", min_count=1),
                    Pattern(Stock, "s"),
                ],
                then=lambda ctx: trace.append(("note", ctx.s.item)),
            ),
        ]

    def scenario(s, trace):
        s.insert(Order(1, "ghost", 1))
        s.insert(Order(2, "disk", 1))
        stock = s.insert(Stock("disk", 5))
        trace.append(("fired", s.fire_all()))
        s.retract(stock)
        s.insert(Order(3, "disk", 1))
        trace.append(("fired2", s.fire_all()))

    run_equivalent(make_rules, scenario)


def test_collect_min_count_gate_matches():
    def make_rules(trace):
        return [
            Rule(
                "batch-report",
                no_loop=True,
                when=[
                    Pattern(Stock, "s"),
                    Collect(Order, "orders", min_count=2,
                            where=lambda o, b: o.item == b["s"].item),
                ],
                then=lambda ctx: trace.append(
                    ("report", ctx.s.item, [o.oid for o in ctx.orders])
                ),
            ),
        ]

    def scenario(s, trace):
        s.insert(Stock("disk", 5))
        s.insert(Stock("cpu", 5))
        for i in range(4):
            s.insert(Order(i, "disk" if i < 3 else "cpu", 1))
        trace.append(("fired", s.fire_all()))
        s.insert(Order(9, "cpu", 1))
        trace.append(("fired2", s.fire_all()))

    run_equivalent(make_rules, scenario)


def test_no_loop_suppression_matches():
    def make_rules(trace):
        def bump(ctx):
            trace.append(("bump", ctx.o.oid, ctx.o.qty))
            ctx.update(ctx.o, qty=ctx.o.qty + 1)

        return [
            Rule(
                "bump-once",
                no_loop=True,
                when=[Pattern(Order, "o", where=lambda o, b: o.qty < 10)],
                then=bump,
            ),
        ]

    def scenario(s, trace):
        s.insert(Order(1, "disk", 1))
        s.insert(Order(2, "disk", 5))
        trace.append(("fired", s.fire_all()))

    run_equivalent(make_rules, scenario)


def test_keyed_pattern_falls_back_on_missing_binding():
    # A keys= hint whose key function raises AttributeError must degrade to
    # the full scan, not crash or mis-match.
    def make_rules(trace):
        return [
            Rule(
                "pair",
                when=[
                    Pattern(Order, "o"),
                    Pattern(Stock, "s",
                            where=lambda s, b: s.item == b["o"].item,
                            # b["o"].missing raises AttributeError
                            keys={"item": lambda b: b["o"].missing}),
                ],
                then=lambda ctx: trace.append(("pair", ctx.o.oid, ctx.s.item)),
            ),
        ]

    def scenario(s, trace):
        s.insert(Stock("disk", 5))
        s.insert(Order(1, "disk", 1))
        trace.append(("fired", s.fire_all()))

    trace = run_equivalent(make_rules, scenario)
    assert ("pair", 1, "disk") in trace
