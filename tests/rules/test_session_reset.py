"""``Session.reset()`` == building a new session over the same memory.

A long-lived session keeps its join network and follows the memory's
change log; ``reset()`` only forgets refraction, ``no_loop`` history,
the halt flag, the listener and the trace.  Whatever happened to the
memory in between — through the session or behind its back — the next
``fire_all`` must fire exactly what a session constructed at that moment
would fire, in the same order, on the network and on the reference
session alike.

The rule pack deliberately contains rules that do **not** modify the
facts they bind (so their activations survive an evaluation unchanged
and must fire again after a reset) and ``no_loop`` rules (whose
suppression must not outlive the evaluation).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rules import Absent, Fact, Pattern, Ref, Rule, Session, WorkingMemory
from tests.rules.conftest import new_session

MODES = ("reference", "network")
ITEMS = ("disk", "cpu", "ram")


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


def soup_rules(trace):
    def fill(ctx):
        trace.append(("fill", ctx.o.oid, ctx.s.level))
        ctx.update(ctx.s, level=ctx.s.level - ctx.o.qty)
        ctx.update(ctx.o, status="filled")

    def top_up(ctx):
        trace.append(("top_up", ctx.s.item, ctx.s.level))
        ctx.update(ctx.s, level=ctx.s.level + 1)

    def halt_on_big(ctx):
        trace.append(("halt", ctx.o.oid))
        ctx.halt()

    return [
        Rule(
            "fill", salience=5,
            when=[
                Pattern(Order, "o", where=lambda o, b: o.qty < 3, status="new"),
                Pattern(Stock, "s", where=lambda s, b: s.level >= b["o"].qty,
                        item=Ref("o", "item")),
            ],
            then=fill,
        ),
        # Binds but never modifies: fires again in every evaluation.
        Rule(
            "shelf", salience=4,
            when=[
                Pattern(Order, "o", status="filled"),
                Pattern(Stock, "s", item=Ref("o", "item")),
            ],
            then=lambda ctx: trace.append(("shelf", ctx.o.oid, ctx.s.level)),
        ),
        Rule(
            "seen", salience=3,
            when=[Pattern(Order, "o", where=lambda o, b: o.status == "new")],
            then=lambda ctx: trace.append(("seen", ctx.o.oid)),
        ),
        # Updates its own fact: only no_loop stops it within an
        # evaluation, and only until the next one.
        Rule(
            "top_up", salience=2, no_loop=True,
            when=[Pattern(Stock, "s", where=lambda s, b: s.level < 2)],
            then=top_up,
        ),
        Rule(
            "starved", salience=1, no_loop=True,
            when=[
                Pattern(Order, "o", where=lambda o, b: o.status == "new"),
                Absent(Stock,
                       where=lambda s, b: s.item == b["o"].item and s.level >= b["o"].qty),
            ],
            then=lambda ctx: trace.append(("starved", ctx.o.oid)),
        ),
        Rule(
            "halt_on_big", salience=0,
            when=[Pattern(Order, "o", where=lambda o, b: o.status == "new" and o.qty >= 3)],
            then=halt_on_big,
        ),
    ]


def run_soup(mode, ops, reuse):
    trace = []
    rules = soup_rules(trace)
    memory = WorkingMemory()
    session = new_session(mode, rules, memory)
    oid = 0
    for op in ops + [("fire",)]:
        # Mutations go to the memory directly: the session must notice
        # them from the change log alone.
        if op[0] == "order":
            memory.insert(Order(oid, op[1], op[2]))
            oid += 1
        elif op[0] == "stock":
            memory.insert(Stock(op[1], op[2]))
        elif op[0] == "restock":
            for fact in memory.facts_of(Stock):
                if fact.item == op[1]:
                    memory.update(fact, level=op[2])
                    break
        elif op[0] == "cancel":
            orders = memory.facts_of(Order)
            if orders:
                memory.retract(orders[op[1] % len(orders)])
        else:
            if reuse:
                session.reset()
            else:
                session = new_session(mode, rules, memory)
            listened = []
            session.firing_listener = lambda rule, bindings, ops: listened.append(rule.name)
            fired = session.fire_all()
            assert len(listened) == fired
            trace.append(("fired", fired))
    return trace


_op = st.one_of(
    st.tuples(st.just("order"), st.sampled_from(ITEMS), st.integers(1, 3)),
    st.tuples(st.just("stock"), st.sampled_from(ITEMS), st.integers(0, 6)),
    st.tuples(st.just("restock"), st.sampled_from(ITEMS), st.integers(0, 6)),
    st.tuples(st.just("cancel"), st.integers(0, 9)),
    st.tuples(st.just("fire"),),
)


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=120, deadline=None)
@given(ops=st.lists(_op, max_size=40))
def test_reset_session_fires_what_a_new_session_would(mode, ops):
    assert run_soup(mode, ops, reuse=True) == run_soup(mode, ops, reuse=False)


@pytest.mark.parametrize("mode", MODES)
def test_unchanged_activations_fire_again_after_reset(mode):
    ops = [
        ("stock", "disk", 5), ("stock", "cpu", 0), ("order", "disk", 1),
        ("order", "disk", 2), ("fire",), ("fire",), ("restock", "disk", 4), ("fire",),
    ]
    reused = run_soup(mode, ops, reuse=True)
    assert reused == run_soup(mode, ops, reuse=False)
    # "shelf" never touches its facts, yet reports both filled orders in
    # each of the four evaluations (the restock moves it to a probe).
    assert [e[:2] for e in reused if e[0] == "shelf"] == [("shelf", 0), ("shelf", 1)] * 4
    assert [e for e in reused if e[0] == "shelf"][-1] == ("shelf", 1, 4)
    # "top_up" is no_loop: once per evaluation while the level is low.
    assert [e for e in reused if e[0] == "top_up"] == [
        ("top_up", "cpu", 0), ("top_up", "cpu", 1),
    ]


def test_reset_session_survives_a_change_log_overrun(monkeypatch):
    monkeypatch.setattr("repro.rules.facts._CHANGELOG_CAP", 4)
    ops = [("stock", "disk", 9), ("stock", "cpu", 1), ("fire",)]
    ops += [("order", ITEMS[i % 2], 1 + i % 3) for i in range(12)]
    ops += [("fire",), ("restock", "cpu", 0), ("cancel", 3), ("fire",)]
    assert run_soup("network", ops, reuse=True) == run_soup("network", ops, reuse=False)


def test_reset_clears_only_per_evaluation_state():
    trace = []
    session = Session(soup_rules(trace), memory=WorkingMemory())
    session.insert(Stock("disk", 5))
    session.insert(Order(0, "disk", 3))
    session.trace_enabled = True
    session.firing_listener = lambda *a: None
    session.fire_all()
    assert session._halted and session._fired and session.trace
    kept_trace = session.trace
    network = session.network
    session.reset()
    assert not session._halted and not session._fired
    assert not session._last_fired_versions
    assert session.firing_listener is None
    assert session.trace == [] and kept_trace  # earlier trace not clobbered
    assert session.network is network and session.trace_enabled


def test_duplicate_rule_names_are_reported_once_each():
    from repro.rules.engine import RuleEngineError

    noop = lambda ctx: None  # noqa: E731
    when = [Pattern(Stock, "s")]
    rules = [Rule(n, when, noop) for n in ("a", "b", "a", "c", "b", "a")]
    with pytest.raises(RuleEngineError, match=r"\['a', 'b'\]"):
        Session(rules)
