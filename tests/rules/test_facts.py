"""Unit tests for working memory."""

import pytest

from repro.rules import Fact, WorkingMemory


class Animal(Fact):
    def __init__(self, name, legs=4):
        self.name = name
        self.legs = legs


class Dog(Animal):
    pass


def test_insert_and_lookup_by_type():
    wm = WorkingMemory()
    rex = wm.insert(Dog("rex"))
    cat = wm.insert(Animal("cat"))
    assert wm.facts_of(Dog) == [rex]
    assert wm.facts_of(Animal) == [rex, cat]  # subclass visible via base


def test_insert_rejects_non_fact():
    wm = WorkingMemory()
    with pytest.raises(TypeError):
        wm.insert("not a fact")  # type: ignore[arg-type]


def test_double_insert_rejected():
    wm = WorkingMemory()
    a = Animal("cat")
    wm.insert(a)
    with pytest.raises(ValueError):
        wm.insert(a)


def test_update_bumps_version_and_applies_changes():
    wm = WorkingMemory()
    a = wm.insert(Animal("cat"))
    assert wm.entry_of(a).version == 0
    wm.update(a, legs=3)
    assert a.legs == 3
    assert wm.entry_of(a).version == 1


def test_update_unknown_attribute_rejected():
    wm = WorkingMemory()
    a = wm.insert(Animal("cat"))
    with pytest.raises(AttributeError):
        wm.update(a, wings=2)


def test_update_requires_membership():
    wm = WorkingMemory()
    with pytest.raises(KeyError):
        wm.update(Animal("ghost"), legs=1)


def test_retract_removes_from_all_indexes():
    wm = WorkingMemory()
    rex = wm.insert(Dog("rex"))
    wm.retract(rex)
    assert wm.facts_of(Dog) == []
    assert wm.facts_of(Animal) == []
    assert not wm.contains(rex)
    with pytest.raises(KeyError):
        wm.retract(rex)


def test_fids_monotonic_in_insertion_order():
    wm = WorkingMemory()
    a, b = wm.insert(Animal("a")), wm.insert(Animal("b"))
    assert wm.fid_of(a) < wm.fid_of(b)


def test_modifier_tracking():
    wm = WorkingMemory()
    a = wm.insert(Animal("a"), modifier="rule-x")
    assert wm.modifier_of(a) == "rule-x"
    wm.update(a, modifier="rule-y", legs=2)
    assert wm.modifier_of(a) == "rule-y"


def test_len_iter_snapshot():
    wm = WorkingMemory()
    wm.insert(Animal("a"))
    wm.insert(Dog("d"))
    assert len(wm) == 2
    assert {type(f).__name__ for f in wm} == {"Animal", "Dog"}
    assert wm.snapshot() == {"Animal": 1, "Dog": 1}
