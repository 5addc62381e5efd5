"""Tests of the RuleProfiler and its integration with rule sessions."""

from repro.obs import RuleProfiler
from repro.rules import Fact, Pattern, Rule, Session


def test_register_keeps_zero_rows_and_counts_sessions():
    profiler = RuleProfiler()
    profiler.register(["a", "b"])
    profiler.register(["a"])
    assert profiler.sessions == 2
    assert {row.name for row in profiler.rows()} == {"a", "b"}
    assert all(row.fires == 0 for row in profiler.rows())


def test_record_match_fire_and_agenda():
    profiler = RuleProfiler()
    profiler.record_match("r", new_activations=3, elapsed_s=0.25)
    profiler.record_fire("r", elapsed_s=0.5)
    profiler.record_fire("r", elapsed_s=0.5)
    profiler.sample_agenda(4)
    profiler.sample_agenda(2)
    row = profiler.stats["r"]
    assert row.activations == 3
    assert row.fires == 2
    assert row.match_s == 0.25
    assert row.action_s == 1.0
    assert row.total_s == 1.25
    assert profiler.total_firings == 2
    assert profiler.agenda_samples == [4, 2]
    assert [row.name for row in profiler.rows()] == ["r"]


def test_rows_sorted_hottest_first():
    profiler = RuleProfiler()
    profiler.record_fire("cold", 0.1)
    profiler.record_fire("hot", 5.0)
    assert [row.name for row in profiler.rows()] == ["hot", "cold"]


def test_report_lists_every_rule():
    profiler = RuleProfiler()
    profiler.register(["never fired", "fired"])
    profiler.record_fire("fired", 0.01)
    text = profiler.report()
    assert "never fired" in text
    assert "fired" in text
    assert "1 firings across 1 sessions" in text


class _Tick:
    """Deterministic fake perf counter: each call advances 1 ms."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 0.001
        return self.t


class Item(Fact):
    def __init__(self, n):
        self.n = n
        self.seen = False


def _mark_rule():
    return Rule(
        "mark items",
        when=[Pattern(Item, binding="it", where=lambda it, b: not it.seen)],
        then=lambda ctx: ctx.update(ctx.it, seen=True),
        no_loop=True,
    )


def test_session_feeds_profiler():
    profiler = RuleProfiler(time_fn=_Tick())
    session = Session([_mark_rule()], profiler=profiler)
    session.insert(Item(1))
    session.insert(Item(2))
    session.fire_all()
    row = profiler.stats["mark items"]
    assert row.fires == 2
    assert row.activations >= 2
    assert row.match_s > 0
    assert row.action_s > 0
    assert profiler.sessions == 1
    assert len(profiler.agenda_samples) == 2


def test_unprofiled_session_never_touches_clock():
    session = Session([_mark_rule()])
    assert session.profiler is None
    session.insert(Item(1))
    assert session.fire_all() == 1  # no profiler calls anywhere


def test_a_drop_made_while_routing_is_booked_as_match_time(monkeypatch):
    """Marking an item takes it out of the lone rule's alpha memory, which
    no later position reads: routing drops it without a sync, and the
    profiler books the drop as the rule's match time."""
    import repro.rules.network as network_module

    syncs = []
    sync_rule = network_module.JoinNetwork._sync_rule
    monkeypatch.setattr(
        network_module.JoinNetwork, "_sync_rule",
        lambda self, state, dirty: syncs.append(state) or sync_rule(self, state, dirty),
    )
    profiler = RuleProfiler(time_fn=_Tick())
    matches = []
    record_match = profiler.record_match
    monkeypatch.setattr(
        profiler, "record_match",
        lambda name, n, s: matches.append((name, n)) or record_match(name, n, s),
    )
    session = Session([_mark_rule()], profiler=profiler)
    session.insert(Item(1))
    assert session.fire_all() == 1
    assert syncs == []
    # the build found one activation; the drop after the firing adds none
    assert matches == [("mark items", 1), ("mark items", 0)]
    assert profiler.stats["mark items"].match_s > 0.0015
