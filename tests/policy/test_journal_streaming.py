"""``PolicyJournal.load`` streams what it reads.

The snapshot is walked one member, and each array one element, at a
time; the journal is read one line at a time; every decision record goes
to the caller's callback as soon as it is read.  The oracle is
``json.loads`` of the same snapshot text, and the old whole-file line
split for the torn-tail count.  A snapshot that is not a well-formed
state document is refused with a ``JournalError`` naming the file, which
``repro serve --journal-root`` turns into its "cannot resume" exit 2.
"""

import gc
import io
import json
import string
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.cli import main
from repro.policy import PolicyConfig, PolicyJournal, PolicyService
from repro.policy.journal import FACT_TYPES, JournalError, fact_to_doc

from tests.policy.conftest import spec

CONFIG = PolicyConfig(policy="greedy", default_streams=4, max_streams=50)


def _drive(service, workflows):
    """Per workflow: four transfers and four cleanups, each with a decision
    record, over five committed calls."""
    for w in range(workflows):
        wf = f"w{w}"
        batch = [spec(f"{wf}f{k}", nbytes=1000.0 + k) for k in range(4)]
        advice = service.submit_transfers(wf, "j", batch)
        service.complete_transfers(done=[a.tid for a in advice])
        cleanups = service.submit_cleanups(wf, "c", [(s["lfn"], s["dst_url"]) for s in batch])
        service.complete_cleanups([c.cid for c in cleanups if c.action == "delete"])
        service.unregister_workflow(wf)


# ------------------------------------------------------------------ malformed
MALFORMED = {
    "truncated": lambda text, doc: text[: len(text) // 2],
    "top-level array": lambda text, doc: json.dumps([doc]),
    "facts not an array": lambda text, doc: json.dumps({**doc, "facts": 7}),
    "version missing": lambda text, doc: json.dumps(
        {k: v for k, v in doc.items() if k != "version"}
    ),
    "version after facts": lambda text, doc: json.dumps({
        key: doc[key] for key in
        ("fingerprint", "counters", "done", "failed", "facts", "version", "decisions")
    }),
}


@pytest.fixture
def malformed(tmp_path, request):
    """A used journal directory whose snapshot is then damaged."""
    service = PolicyService(CONFIG, journal=PolicyJournal(tmp_path / "j"))
    _drive(service, 2)
    service.close()
    path = tmp_path / "j" / "snapshot.json"
    text = path.read_text()
    path.write_text(MALFORMED[request.param](text, json.loads(text)))
    return tmp_path / "j"


@pytest.mark.parametrize("malformed", sorted(MALFORMED), indirect=True)
def test_a_malformed_snapshot_is_refused_naming_the_file(malformed, capsys):
    with pytest.raises(JournalError) as caught:
        PolicyService.recover(malformed, config=CONFIG)
    assert str(malformed / "snapshot.json") in str(caught.value)

    out = io.StringIO()
    code = main(["serve", "--port", "0", "--policy", "greedy", "--threshold", "50",
                 "--journal-root", str(malformed)], out=out)
    assert code == 2 and out.getvalue() == ""
    (line,) = capsys.readouterr().err.splitlines()
    assert "cannot resume" in line and str(malformed / "snapshot.json") in line


# ------------------------------------------------------------------ the json.loads oracle
_NAMES = st.text(string.ascii_lowercase + "_", min_size=1, max_size=6)
_LEAVES = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6)
)
JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6).filter(lambda k: k != "__set__"), inner, max_size=3),
    max_leaves=8,
)
FACT_DOCS = st.builds(
    lambda fid, name, state: {"fid": fid, "type": name, "state": state},
    st.integers(0, 50), st.sampled_from(sorted(FACT_TYPES)),
    st.dictionaries(_NAMES, JSON, max_size=4),
)
KNOWN = ("fingerprint", "counters", "done", "failed", "facts", "decisions")
_SPACES = st.text(" \t\n\r", max_size=2)


@st.composite
def snapshot_texts(draw):
    """A snapshot-shaped document (version first, the known members in any
    order, arbitrary extra members) written by ``json.dumps`` with random
    layout."""
    members = {
        "fingerprint": JSON,
        "counters": st.dictionaries(_NAMES, st.integers(), max_size=4),
        "done": st.lists(st.integers(), max_size=4),
        "failed": st.lists(st.integers(), max_size=4),
        "facts": st.lists(FACT_DOCS, max_size=5),
        "decisions": st.lists(st.dictionaries(st.text(max_size=6), JSON, max_size=4), max_size=5),
    }
    doc = {name: draw(strategy) for name, strategy in members.items()}
    extra = draw(st.dictionaries(
        st.text(max_size=8).filter(lambda k: k not in KNOWN and k != "version"), JSON, max_size=3,
    ))
    order = draw(st.permutations(list(doc) + list(extra)))
    doc = {"version": 1, **{k: doc[k] if k in doc else extra[k] for k in order}}
    text = json.dumps(
        doc,
        indent=draw(st.sampled_from([None, 0, 1, "\t"])),
        separators=(
            draw(_SPACES) + "," + draw(_SPACES), draw(_SPACES) + ":" + draw(_SPACES)
        ),
        ensure_ascii=draw(st.booleans()),
    )
    return draw(_SPACES) + text + draw(_SPACES)


def _write_snapshot(path, text):
    path.mkdir(exist_ok=True)
    (path / "snapshot.json").write_text(text, encoding="utf-8")
    return PolicyJournal(path)


@given(text=snapshot_texts())
def test_the_streamed_snapshot_reads_what_json_loads_reads(tmp_path_factory, text):
    journal = _write_snapshot(tmp_path_factory.mktemp("snap"), text)
    decided = []
    state = journal.load(decided.append)

    doc = json.loads(text)
    assert state.fingerprint == doc["fingerprint"]
    assert state.counters == {"tid": 0, "cid": 0, "batch": 0, "group": 1, **doc["counters"]}
    assert (state.done_tids, state.failed_tids) == (doc["done"], doc["failed"])
    assert {fid: fact_to_doc(fact) for fid, fact in state.facts.items()} == {
        d["fid"]: {"type": d["type"], "state": d["state"]} for d in doc["facts"]
    }
    assert decided == doc["decisions"]
    assert (state.replayed, state.discarded) == (0, 0)


@given(text=snapshot_texts(), data=st.data())
def test_a_snapshot_cut_short_anywhere_is_refused(tmp_path_factory, text, data):
    cut = data.draw(st.integers(0, text.rindex("}")), label="cut")
    journal = _write_snapshot(tmp_path_factory.mktemp("snap"), text[:cut])
    with pytest.raises(JournalError, match="malformed snapshot"):
        journal.load([].append)


# ------------------------------------------------------------------ torn-tail count
def _nonblank_lines(data: bytes) -> int:
    """The torn-tail count of a whole-file line split."""
    count = 0
    for raw in data.splitlines():
        try:
            count += bool(raw.decode("utf-8").strip())
        except UnicodeDecodeError:
            count += 1
    return count


@pytest.mark.parametrize("tail", [
    b'{"op": "i", "fid": 9',
    b'{"op": "i"\r, "fid": 9}\n\r\n{"op": "commit"}\n',
    b"\xff\xfe\rtorn\r\n\r\n",
    b"x\x85y\n\xc2\x85\n \x1c \ntail",
    b"\n\n{}\r\r\n",
], ids=["truncated", "bare-cr", "not-utf8", "unicode-space", "blank"])
def test_a_torn_tail_is_counted_line_by_line_as_before(tmp_path, tail):
    service = PolicyService(CONFIG, journal=PolicyJournal(tmp_path / "j"))
    _drive(service, 1)
    service.close()
    journal = PolicyJournal(tmp_path / "j")
    clean = journal.load([].append)
    with open(journal.journal_path, "ab") as handle:
        handle.write(tail)
    decided = []
    state = journal.load(decided.append)
    assert state.replayed == clean.replayed > 0
    assert state.discarded == _nonblank_lines(tail)
    assert len(decided) == 8


# ------------------------------------------------------------------ memory
def test_recovery_holds_one_decoded_record_at_a_time(tmp_path):
    """Recovering >= 1,024 decision records, about half of them from the
    snapshot and half from the journal suffix, holds little beyond the
    recovered state: the snapshot text and one decoded element.  Holding
    the snapshot as one JSON tree and the records as a list cost ~7 kB
    per record."""
    config = PolicyConfig(policy="greedy", max_streams=50, decision_log_cap=1024)
    service = PolicyService(config, journal=PolicyJournal(tmp_path / "j", snapshot_interval=400))
    _drive(service, 128)
    assert len(service.decisions) == 1024
    service.close()
    snapshot = json.loads((tmp_path / "j" / "snapshot.json").read_text())
    assert 256 < len(snapshot["decisions"]) < 768
    del snapshot

    gc.collect()
    tracemalloc.start()
    try:
        recovered = PolicyService.recover(tmp_path / "j", config=config)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    recovered.close()
    assert recovered.decision_records() == service.decision_records()
    transient = (peak - held) / len(recovered.decisions)
    assert transient < 1500, f"{transient:,.0f} B per record"
