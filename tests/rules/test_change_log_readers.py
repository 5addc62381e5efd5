"""The change log keeps what a live reader has not consumed, and no more.

Each session's join network registers with the working memory as a
reader; every ``_TRIM_EVERY`` ticks a reader's catch-up drops the log
prefix every live reader has routed.  A slower reader that is still
alive keeps its range (and so never falls back to a rebuild), a reader
that has been garbage-collected pins nothing, and a memory with no
reader keeps the plain ring of ``_CHANGELOG_CAP`` entries.
"""

import gc
import weakref

from repro.rules import Fact, Pattern, Rule, Session, WorkingMemory
from repro.rules.facts import _CHANGELOG_CAP, _TRIM_EVERY


class Order(Fact):
    def __init__(self, oid, status="new"):
        self.oid = oid
        self.status = status


def see_rules(trace):
    """One rule: every new order is seen once."""
    def see(ctx):
        trace.append(ctx.o.oid)
        ctx.update(ctx.o, status="seen")

    return [Rule("see", when=[Pattern(Order, "o", where=lambda o, b: o.status == "new")],
                 then=see)]


def count_rebuilds(session):
    """Count ``session``'s network rebuilds from here on."""
    network = session.network
    calls = []
    build_all = network._build_all

    def counted():
        calls.append(1)
        build_all()

    network._build_all = counted
    return calls


def churn(session, memory, orders):
    """``orders`` insert-then-retract pairs through ``session``, one
    ``fire_all`` each: the session's reader catches up every time."""
    for oid in range(orders):
        order = session.insert(Order(oid))
        session.fire_all()
        memory.retract(order)
    session.fire_all()


def test_a_caught_up_reader_keeps_less_than_the_trim_interval():
    memory = WorkingMemory()
    session = Session(see_rules([]), memory=memory)
    session.fire_all()
    most = 0
    for oid in range(4 * _TRIM_EVERY):
        order = session.insert(Order(oid))
        session.fire_all()
        memory.retract(order)
        consumed = memory.retained_changes - (memory.clock - session.network.seq)
        assert consumed < _TRIM_EVERY, (oid, consumed)
        most = max(most, memory.retained_changes)
    # 12k mutations went by; a bare ring would still hold all of them
    assert memory.clock > 10 * _TRIM_EVERY
    assert most <= _TRIM_EVERY


def test_a_live_slower_reader_keeps_its_range_and_never_rebuilds():
    memory = WorkingMemory()
    fast_trace, slow_trace = [], []
    fast = Session(see_rules(fast_trace), memory=memory)
    slow = Session(see_rules(slow_trace), memory=memory)
    for oid in range(3):
        memory.insert(Order(100 + oid))
    fast.fire_all()
    slow.fire_all()
    rebuilds = count_rebuilds(slow)
    behind = slow.network.seq
    churn(fast, memory, 3 * _TRIM_EVERY)
    assert memory.clock - behind > 2 * _TRIM_EVERY
    # every mutation after the slow reader's position is still there
    changes = memory.changes_since(behind)
    assert changes is not None and len(changes) == memory.clock - behind
    assert memory.retained_changes == memory.clock - behind
    late = [memory.insert(Order(200 + oid)) for oid in range(3)]
    slow.fire_all()
    assert rebuilds == []
    # the fast session saw orders 100-102 first; the slow one sees the rest
    assert fast_trace[:3] == [100, 101, 102]
    assert slow_trace == [order.oid for order in late]


def test_a_collected_reader_stops_pinning_entries():
    memory = WorkingMemory()
    fast = Session(see_rules([]), memory=memory)
    slow = Session(see_rules([]), memory=memory)
    fast.fire_all()
    slow.fire_all()
    network = weakref.ref(slow.network)
    del slow
    gc.collect()
    assert network() is None
    churn(fast, memory, 3 * _TRIM_EVERY)
    assert memory.clock > 6 * _TRIM_EVERY
    assert memory.retained_changes < _TRIM_EVERY


def test_a_retracted_fact_is_released_by_the_trim_after_its_route():
    memory = WorkingMemory()
    session = Session(see_rules([]), memory=memory)
    order = session.insert(Order(0))
    session.fire_all()
    memory.retract(order)
    released = weakref.ref(order)
    del order
    gc.collect()
    assert released() is not None      # the log still holds the retraction
    churn(session, memory, _TRIM_EVERY)
    gc.collect()
    assert released() is None


def test_a_memory_without_readers_keeps_the_ring():
    memory = WorkingMemory()
    order = memory.insert(Order(0))
    for _ in range(3 * _TRIM_EVERY):
        memory.update(order, status="new")
    assert memory.retained_changes == memory.clock < _CHANGELOG_CAP
    assert len(memory.changes_since(0)) == memory.clock
