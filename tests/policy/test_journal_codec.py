"""A fact's state through the journal: one codec, exact round trips.

Every ``FACT_TYPES`` class, with injected tuples, frozensets, nested and
int-keyed dicts and sets of tuples, comes back from ``fact_to_doc`` →
``json.dumps`` / ``json.loads`` → ``fact_from_doc`` equal and of the same
container type (a frozenset as a set, the ``__set__`` contract).  A
sealed line that names a fact or counters of the wrong shape reads as a
torn tail, and no line read from disk makes the journal import a module.
"""

import json
import random
import sys

import pytest
from hypothesis import example, given, strategies as st

from repro.policy import PolicyConfig, PolicyJournal, PolicyService
from repro.policy.journal import FACT_TYPES, _sealed_line, fact_from_doc, fact_to_doc
from repro.rules.facts import encode_value

from tests.policy.conftest import spec
from tests.rules.soups import FactFactory

CONFIG = PolicyConfig(policy="greedy", default_streams=4, max_streams=8)

_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False)
)
_HASHABLE = st.recursive(
    _SCALARS,
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=3),
    max_leaves=6,
)
_KEYS = st.text(max_size=4) | st.sampled_from(["__set__", "__tuple__", "__pairs__"])
VALUES = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(_KEYS, inner, max_size=3)
        | st.dictionaries(_HASHABLE, inner, max_size=3)
        | st.sets(_HASHABLE, max_size=3)
        | st.frozensets(_HASHABLE, max_size=3)
    ),
    max_leaves=12,
)


def assert_same(original, back):
    """``back`` equals ``original`` and has its type at every level; a set
    may come back for a frozenset (and a frozenset where it must hash)."""
    if isinstance(original, (set, frozenset)):
        assert isinstance(back, (set, frozenset)) and back == original
        assert type(original) is frozenset or type(back) is set
        for member in original:
            assert_same(member, next(m for m in back if m == member))
        return
    assert type(back) is type(original), (original, back)
    if isinstance(original, dict):
        assert back.keys() == original.keys()
        for key, value in original.items():
            assert_same(key, next(k for k in back if k == key))
            assert_same(value, back[key])
    elif isinstance(original, (list, tuple)):
        assert len(back) == len(original)
        for item, item_back in zip(original, back):
            assert_same(item, item_back)
    else:
        assert back == original


@given(
    name=st.sampled_from(sorted(FACT_TYPES)),
    attrs=st.dictionaries(st.text("abcxyz_", min_size=1, max_size=5), VALUES, max_size=4),
)
@example(name="TransferFact", attrs={"pairs": {(1, 2), (3, 4)}})
@example(name="StagedFileFact", attrs={"users": frozenset({"w1", "w0"}), "at": (1, "x")})
@example(name="HostPairFact", attrs={"by_id": {1: "a", (2, 3): {"k": [None]}}})
def test_every_fact_type_round_trips_through_json(name, attrs):
    fact = FactFactory(random.Random(0)).make(FACT_TYPES[name])
    fact.__dict__.update(attrs)
    text = json.dumps(fact_to_doc(fact))
    revived = fact_from_doc(json.loads(text))
    assert type(revived) is type(fact)
    assert_same(fact.__dict__, revived.__dict__)
    assert json.dumps(fact_to_doc(revived)) == text  # a revived fact re-encodes alike


def test_set_encoding_is_ordered_and_keeps_string_order():
    assert encode_value({"b", "a", "c"}) == {"__set__": ["a", "b", "c"]}
    pairs = [(3, "c"), (1, "a"), (2, frozenset({"x", "y"}))]
    assert encode_value(set(pairs)) == encode_value(set(reversed(pairs)))


def _journal_with_one_call(path):
    journal = PolicyJournal(path)
    service = PolicyService(CONFIG, journal=journal)
    service.submit_transfers("wf1", "j1", [spec("a")])
    service.close()
    return journal


MALFORMED_LINES = {
    "fact not an object": [{"op": "i", "fid": 90, "fact": "x"}],
    "state not an object": [
        {"op": "i", "fid": 90, "fact": {"type": "TransferFact", "state": [1]}}
    ],
    "counters not an object": [],
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_LINES))
def test_a_sealed_line_of_the_wrong_shape_is_a_torn_tail(tmp_path, shape):
    journal = _journal_with_one_call(tmp_path / "j")
    records = MALFORMED_LINES[shape] + [
        {"op": "commit", "counters": [1] if shape == "counters not an object" else {}}
    ]
    with open(journal.journal_path, "a", encoding="utf-8") as handle:
        handle.writelines(_sealed_line(record) + "\n" for record in records)

    state = PolicyJournal(tmp_path / "j").load(lambda record: None)
    assert state.discarded == len(records)
    recovered = PolicyService.recover(tmp_path / "j", config=CONFIG)
    assert recovered.counters()["tid"] == 1


def test_a_journal_line_never_imports_a_module(tmp_path, monkeypatch):
    """An ``__object__`` tag in a fact's state is plain data to the journal."""
    canary = tmp_path / "journal_import_canary.py"
    canary.write_text("class Gadget:\n    pass\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    journal = _journal_with_one_call(tmp_path / "j")
    tagged = {"__object__": "journal_import_canary:Gadget", "attrs": {"armed": True}}
    doc = {"type": "TransferFact", "state": {"tid": 9, "payload": tagged}}
    with open(journal.journal_path, "a", encoding="utf-8") as handle:
        for record in ({"op": "i", "fid": 90, "fact": doc},
                       {"op": "commit", "counters": {"tid": 9}}):
            handle.write(_sealed_line(record) + "\n")

    state = PolicyJournal(tmp_path / "j").load(lambda record: None)
    assert "journal_import_canary" not in sys.modules
    if state.discarded == 0:
        assert state.facts[90].payload == tagged
