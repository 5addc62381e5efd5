"""Unit tests for rule matching, agenda ordering, refraction, no_loop."""

import pytest

from repro.rules import (
    Absent,
    Collect,
    Fact,
    Pattern,
    Ref,
    Rule,
    RuleEngineError,
    Session,
)


class Ticket(Fact):
    def __init__(self, seat, price, sold=False):
        self.seat = seat
        self.price = price
        self.sold = sold


class Alarm(Fact):
    def __init__(self, level=0):
        self.level = level


def test_simple_rule_fires_per_matching_fact():
    hits = []
    rule = Rule(
        "expensive",
        when=[Pattern(Ticket, binding="t", where=lambda t, b: t.price > 100)],
        then=lambda ctx: hits.append(ctx.t.seat),
    )
    s = Session([rule])
    s.insert(Ticket("A1", 50))
    s.insert(Ticket("A2", 150))
    s.insert(Ticket("A3", 200))
    assert s.fire_all() == 2
    assert sorted(hits) == ["A2", "A3"]


def test_refraction_activation_fires_once():
    hits = []
    rule = Rule(
        "any-ticket",
        when=[Pattern(Ticket, binding="t")],
        then=lambda ctx: hits.append(ctx.t.seat),
    )
    s = Session([rule])
    s.insert(Ticket("A1", 50))
    s.fire_all()
    s.fire_all()  # no new facts: nothing to fire
    assert hits == ["A1"]


def test_update_reactivates():
    hits = []
    rule = Rule(
        "watch",
        when=[Pattern(Ticket, binding="t")],
        then=lambda ctx: hits.append((ctx.t.seat, ctx.t.price)),
    )
    s = Session([rule])
    t = s.insert(Ticket("A1", 50))
    s.fire_all()
    s.update(t, price=75)
    s.fire_all()
    assert hits == [("A1", 50), ("A1", 75)]


def test_salience_order():
    order = []
    low = Rule(
        "low",
        salience=1,
        when=[Pattern(Ticket)],
        then=lambda ctx: order.append("low"),
    )
    high = Rule(
        "high",
        salience=10,
        when=[Pattern(Ticket)],
        then=lambda ctx: order.append("high"),
    )
    s = Session([low, high])
    s.insert(Ticket("A1", 10))
    s.fire_all()
    assert order == ["high", "low"]


def test_definition_order_breaks_salience_ties():
    order = []
    r1 = Rule("first", when=[Pattern(Ticket)], then=lambda ctx: order.append(1))
    r2 = Rule("second", when=[Pattern(Ticket)], then=lambda ctx: order.append(2))
    s = Session([r1, r2])
    s.insert(Ticket("A1", 10))
    s.fire_all()
    assert order == [1, 2]


def test_chaining_insert_from_action():
    fired = []

    def raise_alarm(ctx):
        ctx.insert(Alarm(level=1))

    watch = Rule(
        "watch",
        when=[Pattern(Ticket, where=lambda t, b: t.price > 500)],
        then=raise_alarm,
    )
    react = Rule(
        "react",
        when=[Pattern(Alarm, binding="a")],
        then=lambda ctx: fired.append(ctx.a.level),
    )
    s = Session([watch, react])
    s.insert(Ticket("VIP", 1000))
    s.fire_all()
    assert fired == [1]


def test_retract_from_action_stops_downstream_matches():
    survivors = []

    def drop(ctx):
        ctx.retract(ctx.t)

    cull = Rule(
        "cull-cheap",
        salience=10,
        when=[Pattern(Ticket, binding="t", where=lambda t, b: t.price < 100)],
        then=drop,
    )
    count = Rule(
        "count",
        when=[Pattern(Ticket, binding="t")],
        then=lambda ctx: survivors.append(ctx.t.seat),
    )
    s = Session([cull, count])
    s.insert(Ticket("cheap", 10))
    s.insert(Ticket("fine", 150))
    s.fire_all()
    assert survivors == ["fine"]


def test_join_two_patterns():
    pairs = []
    rule = Rule(
        "same-price-pair",
        when=[
            Pattern(Ticket, binding="a"),
            Pattern(
                Ticket,
                binding="b",
                where=lambda b, ctx: b.price == ctx["a"].price and b.seat > ctx["a"].seat,
            ),
        ],
        then=lambda ctx: pairs.append((ctx.a.seat, ctx.b.seat)),
    )
    s = Session([rule])
    s.insert(Ticket("A1", 100))
    s.insert(Ticket("A2", 100))
    s.insert(Ticket("A3", 50))
    s.fire_all()
    assert pairs == [("A1", "A2")]


def test_absent_negation():
    hits = []
    rule = Rule(
        "no-alarm",
        when=[Pattern(Ticket, binding="t"), Absent(Alarm)],
        then=lambda ctx: hits.append(ctx.t.seat),
    )
    s = Session([rule])
    s.insert(Ticket("A1", 10))
    s.insert(Alarm())
    assert s.fire_all() == 0

    s2 = Session([rule])
    s2.insert(Ticket("A1", 10))
    assert s2.fire_all() == 1


def test_collect_binds_all_matches():
    seen = []
    rule = Rule(
        "sum-sold",
        when=[Collect(Ticket, binding="sold", where=lambda t, b: t.sold)],
        then=lambda ctx: seen.append(sum(t.price for t in ctx.sold)),
    )
    s = Session([rule])
    s.insert(Ticket("A1", 100, sold=True))
    s.insert(Ticket("A2", 50, sold=True))
    s.insert(Ticket("A3", 999, sold=False))
    s.fire_all()
    assert seen == [150]


def test_collect_min_count_blocks():
    hits = []
    rule = Rule(
        "needs-three",
        when=[Collect(Ticket, binding="ts", min_count=3)],
        then=lambda ctx: hits.append(len(ctx.ts)),
    )
    s = Session([rule])
    s.insert(Ticket("A1", 1))
    s.insert(Ticket("A2", 1))
    assert s.fire_all() == 0
    s.insert(Ticket("A3", 1))
    assert s.fire_all() == 1
    assert hits == [3]


def test_no_loop_prevents_self_retrigger():
    def bump(ctx):
        ctx.update(ctx.a, level=ctx.a.level + 1)

    rule = Rule(
        "bump",
        when=[Pattern(Alarm, binding="a")],
        then=bump,
        no_loop=True,
    )
    s = Session([rule])
    a = s.insert(Alarm(level=0))
    fired = s.fire_all()
    assert fired == 1
    assert a.level == 1


def test_no_loop_still_reacts_to_other_rules_updates():
    trace = []

    def bump(ctx):
        trace.append("bump")
        ctx.update(ctx.a, level=ctx.a.level + 1)

    bump_rule = Rule(
        "bump", when=[Pattern(Alarm, binding="a")], then=bump, no_loop=True
    )

    def escalate(ctx):
        trace.append("escalate")
        ctx.update(ctx.a, level=100)

    escalate_rule = Rule(
        "escalate",
        salience=-1,  # runs after bump
        when=[Pattern(Alarm, binding="a", where=lambda a, b: a.level == 1)],
        then=escalate,
        no_loop=True,
    )
    s = Session([bump_rule, escalate_rule])
    a = s.insert(Alarm(level=0))
    s.fire_all()
    # bump(0->1), escalate(1->100), bump re-activated by escalate's change (100->101)
    assert trace == ["bump", "escalate", "bump"]
    assert a.level == 101


def test_divergence_guard():
    def bump(ctx):
        ctx.update(ctx.a, level=ctx.a.level + 1)

    runaway = Rule("runaway", when=[Pattern(Alarm, binding="a")], then=bump)
    s = Session([runaway], max_firings=50)
    s.insert(Alarm())
    with pytest.raises(RuleEngineError, match="exceeded"):
        s.fire_all()


def test_halt_stops_firing():
    hits = []

    def first(ctx):
        hits.append("first")
        ctx.halt()

    r1 = Rule("r1", salience=10, when=[Pattern(Ticket)], then=first)
    r2 = Rule("r2", when=[Pattern(Ticket)], then=lambda ctx: hits.append("second"))
    s = Session([r1, r2])
    s.insert(Ticket("A1", 1))
    s.fire_all()
    assert hits == ["first"]
    # A later fire_all resumes with the remaining activation.
    s.fire_all()
    assert hits == ["first", "second"]


def test_duplicate_rule_names_rejected():
    r = Rule("same", when=[Pattern(Ticket)], then=lambda ctx: None)
    r2 = Rule("same", when=[Pattern(Ticket)], then=lambda ctx: None)
    with pytest.raises(RuleEngineError):
        Session([r, r2])


def test_rule_validation():
    with pytest.raises(ValueError):
        Rule("", when=[Pattern(Ticket)], then=lambda ctx: None)
    with pytest.raises(ValueError):
        Rule("empty", when=[], then=lambda ctx: None)
    with pytest.raises(TypeError):
        Rule("bad-cond", when=["nope"], then=lambda ctx: None)  # type: ignore[list-item]
    with pytest.raises(TypeError):
        Rule("bad-action", when=[Pattern(Ticket)], then="nope")  # type: ignore[arg-type]


def test_pattern_validation():
    with pytest.raises(TypeError):
        Pattern(int)  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        Absent(str)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        Collect(Ticket, binding="")


def test_equality_constraints_replace_keys_hints():
    keys = {"seat": lambda b: "A1"}
    for element in (
        lambda: Pattern(Ticket, "t", keys=keys),
        lambda: Absent(Ticket, keys=keys),
        lambda: Collect(Ticket, "ts", keys=keys),
    ):
        with pytest.raises(TypeError, match="not keys="):
            element()
    with pytest.raises(TypeError):
        Pattern(Ticket, "t", seat=lambda b: "A1")  # a key function is no constant
    with pytest.raises(TypeError):
        Pattern(Ticket, "t", seat=["A1"])  # an index key must hash
    with pytest.raises(ValueError, match="names no earlier Pattern binding"):
        Rule("forward", when=[Pattern(Ticket, "t", seat=Ref("u", "seat")),
                              Pattern(Ticket, "u")], then=lambda ctx: None)


def test_missing_binding_attribute_error():
    rule = Rule(
        "r", when=[Pattern(Ticket, binding="t")], then=lambda ctx: ctx.nonexistent
    )
    s = Session([rule])
    s.insert(Ticket("A1", 1))
    with pytest.raises(AttributeError, match="no binding"):
        s.fire_all()


def test_guard_attribute_error_treated_as_no_match():
    class Special(Ticket):
        def __init__(self, seat, price, vip):
            super().__init__(seat, price)
            self.vip = vip

    hits = []
    rule = Rule(
        "vip-only",
        when=[Pattern(Ticket, binding="t", where=lambda t, b: t.vip)],
        then=lambda ctx: hits.append(ctx.t.seat),
    )
    s = Session([rule])
    s.insert(Ticket("plain", 1))  # has no .vip -> no match, no crash
    s.insert(Special("vip", 1, vip=True))
    s.fire_all()
    assert hits == ["vip"]


def test_globals_visible_to_actions():
    seen = []
    rule = Rule(
        "use-global",
        when=[Pattern(Ticket, binding="t")],
        then=lambda ctx: seen.append(ctx.globals["threshold"]),
    )
    s = Session([rule], globals={"threshold": 50})
    s.insert(Ticket("A1", 1))
    s.fire_all()
    assert seen == [50]


def test_trace_records_firings():
    rule = Rule("traced", when=[Pattern(Ticket, binding="t")], then=lambda ctx: None)
    s = Session([rule])
    s.trace_enabled = True
    s.insert(Ticket("A1", 5))
    s.fire_all()
    assert len(s.trace) == 1
    assert "traced" in s.trace[0]


def test_shared_memory_across_sessions():
    """The policy service keeps one memory across many request sessions."""
    from repro.rules import WorkingMemory

    wm = WorkingMemory()
    counted = []
    count_rule = Rule(
        "count",
        when=[Collect(Ticket, binding="ts", min_count=1)],
        then=lambda ctx: counted.append(len(ctx.ts)),
    )
    s1 = Session([count_rule], memory=wm)
    s1.insert(Ticket("A1", 1))
    s1.fire_all()
    s2 = Session([count_rule], memory=wm)
    s2.insert(Ticket("A2", 1))
    s2.fire_all()
    assert counted == [1, 2]
