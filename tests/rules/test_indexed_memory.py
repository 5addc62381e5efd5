"""Unit tests for the hash-indexed working memory (lookup + change log)."""

import pytest

from repro.rules import Fact, WorkingMemory
from repro.rules.facts import _CHANGELOG_CAP


class Transfer(Fact):
    def __init__(self, lfn, dst, status="new"):
        self.lfn = lfn
        self.dst = dst
        self.status = status


class Priority(Transfer):
    pass


class Bare(Fact):
    pass


@pytest.fixture
def wm():
    return WorkingMemory()


# ------------------------------------------------------------------ lookup
def test_lookup_matches_scan_filter(wm):
    a = wm.insert(Transfer("a", "u1"))
    b = wm.insert(Transfer("b", "u1"))
    wm.insert(Transfer("a", "u2"))
    assert wm.lookup(Transfer, dst="u1") == [a, b]
    assert wm.lookup(Transfer, lfn="a", dst="u1") == [a]
    assert wm.lookup(Transfer, lfn="zzz") == []


def test_lookup_preserves_insertion_order(wm):
    facts = [wm.insert(Transfer(str(i), "u", status="s")) for i in range(20)]
    assert wm.lookup(Transfer, status="s") == facts


def test_lookup_sees_subclasses_via_base(wm):
    p = wm.insert(Priority("a", "u1"))
    t = wm.insert(Transfer("a", "u1"))
    assert wm.lookup(Transfer, lfn="a") == [p, t]
    assert wm.lookup(Priority, lfn="a") == [p]


def test_lookup_tracks_updates(wm):
    a = wm.insert(Transfer("a", "u1"))
    assert wm.lookup(Transfer, status="new") == [a]
    wm.update(a, status="done")
    assert wm.lookup(Transfer, status="new") == []
    assert wm.lookup(Transfer, status="done") == [a]


def test_lookup_tracks_retracts(wm):
    a = wm.insert(Transfer("a", "u1"))
    wm.lookup(Transfer, dst="u1")  # build the index first
    wm.retract(a)
    assert wm.lookup(Transfer, dst="u1") == []


def test_lookup_index_built_lazily_covers_existing_facts(wm):
    facts = [wm.insert(Transfer(str(i), "u1")) for i in range(5)]
    # No lookup has run yet; the first one must still see everything.
    assert wm.lookup(Transfer, dst="u1") == facts


def test_index_built_after_mutations_is_maintained_for_every_type(wm):
    """The per-type list of applicable indexes is cached; an index built
    later (here on the base class, after subclass facts were mutated)
    must still see every subsequent insert, update and retract."""
    p = wm.insert(Priority("a", "u1"))
    assert wm.lookup(Priority, lfn="a") == [p]
    wm.update(p, dst="u2")  # walks (and caches) Priority's indexes
    assert wm.lookup(Transfer, dst="u2") == [p]  # a new index, on the base
    q = wm.insert(Priority("b", "u2"))
    t = wm.insert(Transfer("c", "u2"))
    assert wm.lookup(Transfer, dst="u2") == [p, q, t]
    wm.update(q, dst="u3", lfn="a")
    wm.retract(p)
    assert wm.lookup(Transfer, dst="u2") == [t]
    assert wm.lookup(Priority, lfn="a") == [q]


def test_lookup_skips_facts_missing_the_attribute(wm):
    wm.insert(Bare())
    t = wm.insert(Transfer("a", "u1"))
    assert wm.lookup(Fact, lfn="a") == [t]


def test_lookup_unhashable_value_raises_when_indexed(wm):
    wm.insert(Transfer("a", "u1"))
    with pytest.raises(TypeError):
        wm.lookup(Transfer, lfn=["not", "hashable"])


def test_lookup_equals_filtering_facts_of(wm):
    """The documented contract, with every index built before, between
    and after the mutations it has to follow."""
    queries = (
        {"status": "new"}, {"status": "done"}, {"lfn": "f1", "dst": "u0"},
        {"dst": "u2"}, {"lfn": "f3", "status": "done"}, {"lfn": "absent"},
    )

    def check(upto):
        for query in queries[:upto]:
            assert wm.lookup(Transfer, **query) == [
                f for f in wm.facts_of(Transfer)
                if all(getattr(f, a) == v for a, v in query.items())
            ]

    check(2)
    for i in range(30):
        wm.insert((Priority if i % 5 == 0 else Transfer)(f"f{i % 7}", f"u{i % 3}"))
    check(4)
    for f in wm.facts_of(Transfer)[::4]:
        wm.update(f, status="done")
    for f in wm.facts_of(Transfer)[::9]:
        wm.retract(f)
    for f in wm.facts_of(Transfer)[::6]:
        wm.update(f, lfn="f3", dst="u2")
    check(len(queries))


# ------------------------------------------------------------------ fid access
def test_fact_with_fid(wm):
    a = wm.insert(Transfer("a", "u1"))
    fid = wm.fid_of(a)
    assert wm.fact_with_fid(fid) is a
    wm.retract(a)
    assert wm.fact_with_fid(fid) is None


# ------------------------------------------------------------------ change log
def test_changes_since_records_insert_update_retract(wm):
    start = wm.clock
    a = wm.insert(Transfer("a", "u1"))
    fid = wm.fid_of(a)
    wm.update(a, status="done")
    wm.retract(a)
    changes = wm.changes_since(start)
    assert changes is not None
    assert [(c_fid, op) for c_fid, _f, op, _changed in changes] == [
        (fid, "i"), (fid, "u"), (fid, "r")
    ]


def test_changes_since_current_clock_is_empty(wm):
    wm.insert(Transfer("a", "u1"))
    assert wm.changes_since(wm.clock) == []


def test_changes_since_overflow_returns_none(wm):
    start = wm.clock
    a = wm.insert(Transfer("a", "u1"))
    for _ in range(_CHANGELOG_CAP + 10):
        wm.update(a, status="new")
    assert wm.changes_since(start) is None
    # A recent sequence number is still serviceable.
    recent = wm.clock
    wm.update(a, status="done")
    changes = wm.changes_since(recent)
    assert changes is not None and len(changes) == 1


def test_changes_since_none_fallback_at_eviction_edge(wm):
    """The ring buffer serves exactly the last ``_CHANGELOG_CAP`` ticks:
    one past the edge must return ``None`` (rebuild), the edge itself the
    full window."""
    a = wm.insert(Transfer("a", "u1"))
    for _ in range(_CHANGELOG_CAP + 5):
        wm.update(a, status="new")
    oldest_retained = wm.clock - _CHANGELOG_CAP + 1
    # The edge: every retained tick is the answer.
    edge = wm.changes_since(oldest_retained - 1)
    assert edge is not None and len(edge) == _CHANGELOG_CAP
    # One tick older has been evicted — the caller cannot trust a partial
    # answer and must rebuild.
    assert wm.changes_since(oldest_retained - 2) is None


def test_update_records_attributes_that_actually_changed(wm):
    start = wm.clock
    a = wm.insert(Transfer("a", "u1"))
    wm.update(a, status="done", dst="u1")     # dst unchanged
    wm.update(a, status="done")               # nothing really changed
    wm.update(a)                              # in-place announce: unknowable
    changes = wm.changes_since(start)
    assert [(op, changed) for _fid, _f, op, changed in changes] == [
        ("i", None),
        ("u", frozenset({"status"})),
        ("u", frozenset()),
        ("u", None),
    ]
