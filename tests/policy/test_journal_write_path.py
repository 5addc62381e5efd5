"""The journal's write path: one encode per changed fact per transaction.

``PolicyJournal`` buffers the *net* effect of a service call per fid and
encodes it once at commit.  The reference here,
:class:`FullStateJournal`, writes what the journal wrote before that —
one full-state line for every single mutation, sealed with two encodes,
snapshots through ``json.dump`` — and :class:`TeeJournal` feeds both from
the same service.  What ``load()`` reconstructs from either directory
must be equal after every commit, and a torn tail must discard exactly
the last transaction.
"""

import errno
import json
import os
import random
import shutil
import types
import zlib
from pathlib import Path

import pytest

import repro.policy.journal as journal_module
from repro.datacatalog.model import CatalogConfig
from repro.policy import PolicyConfig, PolicyJournal, PolicyService
from repro.policy.journal import fact_to_doc
from repro.policy.model import LeaseSweepFact, StagedFileFact

from tests.policy.conftest import spec
from tests.policy.test_session_reuse import DST, Driver, make_config

JOURNAL_V1 = Path(__file__).resolve().parents[1] / "data" / "journal_v1"


# ------------------------------------------------------------------ reference
class FullStateJournal:
    """The per-mutation write path, kept as the oracle.

    Same directory layout and line format as :class:`PolicyJournal`, so
    ``PolicyJournal(path).load(...)`` reads what it writes.
    """

    def __init__(self, path):
        self.dir = Path(path)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.dir / "journal.jsonl"
        self.snapshot_path = self.dir / "snapshot.json"
        self._pending = []

    @staticmethod
    def _sealed_line(record):
        payload = json.dumps(record, sort_keys=True)
        sealed = dict(record)
        sealed["ck"] = zlib.crc32(payload.encode("utf-8"))
        return json.dumps(sealed, sort_keys=True)

    def record_mutation(self, fact, fid, op):
        record = {"op": op, "fid": fid}
        if op != "r":
            record["fact"] = fact_to_doc(fact)
        self._pending.append(self._sealed_line(record))

    def record_decision(self, record):
        self._pending.append(self._sealed_line({"op": "d", "record": record}))

    def commit(self, counters, done=(), failed=()):
        record = {"op": "commit", "counters": dict(counters)}
        if done:
            record["done"] = list(done)
        if failed:
            record["failed"] = list(failed)
        lines, self._pending = self._pending, []
        lines.append(self._sealed_line(record))
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

    def abort(self):
        self._pending.clear()

    def write_snapshot(self, service):
        memory = service.memory
        facts = [{"fid": memory.fid_of(f), **fact_to_doc(f)} for f in memory]
        facts.sort(key=lambda doc: doc["fid"])
        doc = {
            "version": 1,
            "fingerprint": service.config_fingerprint(),
            "counters": service.counters(),
            "done": service._done_tids.ids(),
            "failed": service._failed_tids.ids(),
            "facts": facts,
            "decisions": service.decision_records(),
        }
        with open(self.snapshot_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        self.journal_path.write_text("")


class TeeJournal(PolicyJournal):
    """A real journal that repeats every write-path call on a reference
    writer and reports each commit to ``after_commit``."""

    def __init__(self, path, reference, after_commit=None, **kwargs):
        super().__init__(path, **kwargs)
        self.reference = reference
        self.after_commit = after_commit

    def record_mutation(self, fact, fid, op):
        super().record_mutation(fact, fid, op)
        self.reference.record_mutation(fact, fid, op)

    def record_decision(self, record):
        super().record_decision(record)
        self.reference.record_decision(record)

    def commit(self, counters, done=(), failed=()):
        size_before = self.journal_path.stat().st_size
        super().commit(counters, done, failed)
        self.reference.commit(counters, done, failed)
        if self.after_commit is not None:
            self.after_commit(size_before)

    def abort(self):
        super().abort()
        self.reference.abort()

    def write_snapshot(self, service):
        super().write_snapshot(service)
        self.reference.write_snapshot(service)


def loaded(path):
    """Everything ``load()`` reconstructs, in comparable form."""
    decided = []
    state = PolicyJournal(path).load(decided.append)
    return {
        "facts": {fid: fact_to_doc(fact) for fid, fact in state.facts.items()},
        "counters": state.counters,
        "done": state.done_tids,
        "failed": state.failed_tids,
        "decisions": decided,
        "fingerprint": state.fingerprint,
        "replayed": state.replayed,
        "discarded": state.discarded,
    }


# ------------------------------------------------------------------ (a)
@pytest.mark.parametrize("catalog", (False, True), ids=("nocatalog", "catalog"))
@pytest.mark.parametrize("seed", range(3))
def test_load_equals_the_per_mutation_reference_after_every_commit(
    tmp_path, seed, catalog
):
    policy = ("greedy", "balanced", "fifo")[seed]
    real_dir, ref_dir, torn_dir = tmp_path / "real", tmp_path / "ref", tmp_path / "torn"
    torn_dir.mkdir()
    cuts = random.Random(seed)
    checked = {"commits": 0, "torn": 0}
    previous = [None]

    def after_commit(size_before):
        real = loaded(real_dir)
        assert real == loaded(ref_dir)
        assert real["discarded"] == 0
        # Tear the transaction just written: replay must stop before it,
        # i.e. at what the directory held before this commit.
        data = journal.journal_path.read_bytes()
        shutil.copy(journal.snapshot_path, torn_dir / "snapshot.json")
        (torn_dir / "journal.jsonl").write_bytes(data[:size_before])
        before = loaded(torn_dir)
        assert before["replayed"] == real["replayed"] - 1
        if size_before:  # else a snapshot intervened (it is checked above)
            assert before == previous[0]
        # (the final newline is not needed for the last line to count)
        span = range(size_before + 1, len(data) - 1)
        torn_at(cuts.sample(span, min(3, len(span))), data, before)
        previous[0] = real
        checked["commits"] += 1

    def torn_at(span, data, before):
        for cut in span:
            (torn_dir / "journal.jsonl").write_bytes(data[:cut])
            torn = loaded(torn_dir)
            assert torn["discarded"] > 0
            assert {**torn, "discarded": 0} == before, f"cut at byte {cut}"
            checked["torn"] += 1

    now = [0.0]
    journal = TeeJournal(
        real_dir, FullStateJournal(ref_dir), after_commit, snapshot_interval=7
    )
    config = make_config(policy, catalog)
    config.decision_log_cap = 16  # small snapshots; eviction order is replayed too
    service = PolicyService(config, clock=lambda: now[0], journal=journal)
    previous[0] = loaded(real_dir)
    Driver(service, seed, now).run(120)
    journal.close()

    assert checked["commits"] == journal.commits > 60
    assert journal.snapshots > 5
    assert checked["torn"] > 2 * journal.commits
    # After the last commit (and whatever snapshot followed it).
    assert loaded(real_dir) == loaded(ref_dir)
    recovered = PolicyService.recover(real_dir, config=config, clock=lambda: now[0])
    assert recovered.memory.snapshot() == service.memory.snapshot()
    assert recovered.decision_records() == service.decision_records()
    recovered.journal.close()


def test_a_tail_torn_at_any_byte_discards_exactly_the_last_transaction(tmp_path):
    now = [0.0]
    journal = PolicyJournal(tmp_path / "j", snapshot_interval=7)
    config = make_config("balanced", catalog=True)
    config.decision_log_cap = 16
    service = PolicyService(config, clock=lambda: now[0], journal=journal)
    Driver(service, 5, now).run(25)
    if journal.wants_snapshot or not journal.journal_path.stat().st_size:
        service.deny_host("site-c")  # keep a committed prefix in the journal
    before = loaded(tmp_path / "j")
    size_before = journal.journal_path.stat().st_size
    assert before["replayed"] > 0 and size_before > 0
    service.submit_transfers("wf0", "last", [spec("tail", cluster="c9")])
    journal.close()
    data = journal.journal_path.read_bytes()
    after = loaded(tmp_path / "j")
    assert after["replayed"] == before["replayed"] + 1
    assert len(after["facts"]) > len(before["facts"])
    assert len(data) - size_before > 1500  # facts, a decision, the commit

    for cut in range(size_before, len(data) + 1):
        journal.journal_path.write_bytes(data[:cut])
        torn = loaded(tmp_path / "j")
        if cut >= len(data) - 1:  # only the final newline is optional
            assert torn == after
        else:
            assert (torn["discarded"] > 0) == (cut > size_before)
            assert {**torn, "discarded": 0} == before, f"cut at byte {cut}"


# ------------------------------------------------------------------ (b)
def test_insert_and_retract_inside_one_transaction_leave_no_line(tmp_path):
    journal = PolicyJournal(tmp_path / "j")
    fact = StagedFileFact(lfn="a", dst_url=f"{DST}/a", owner_tid=1, workflow="wf")
    journal.record_mutation(fact, 7, "i")
    journal.record_mutation(fact, 7, "u")
    assert journal.has_pending
    journal.record_mutation(fact, 7, "r")
    assert not journal.has_pending

    # ... while retracting a fact an earlier transaction wrote does.
    journal.record_mutation(fact, 3, "u")
    journal.record_mutation(fact, 3, "r")
    journal.commit({"tid": 1})
    journal.close()
    ops = [json.loads(line) for line in journal.journal_path.read_text().splitlines()]
    assert [(r["op"], r.get("fid")) for r in ops] == [("r", 3), ("commit", None)]


def test_update_after_insert_stays_an_insert_with_the_final_state(tmp_path):
    journal = PolicyJournal(tmp_path / "j")
    fact = StagedFileFact(lfn="a", dst_url=f"{DST}/a", owner_tid=1, workflow="wf")
    other = StagedFileFact(lfn="b", dst_url=f"{DST}/b", owner_tid=2, workflow="wf")
    journal.record_mutation(fact, 4, "i")
    journal.record_mutation(other, 2, "u")
    fact.status = "staged"
    journal.record_mutation(fact, 4, "u")
    journal.commit({"tid": 2})
    journal.close()
    ops = [json.loads(line) for line in journal.journal_path.read_text().splitlines()]
    # first-touch order, one line per fid
    assert [(r["op"], r.get("fid")) for r in ops] == [("i", 4), ("u", 2), ("commit", None)]
    assert ops[0]["fact"]["state"]["status"] == "staged"
    decided = []
    state = PolicyJournal(tmp_path / "j").load(decided.append)
    assert state.facts[4].status == "staged" and state.facts[2].lfn == "b"
    assert decided == []


def test_calls_that_change_nothing_durable_write_nothing(tmp_path):
    now = [0.0]
    journal = PolicyJournal(tmp_path / "j")
    service = PolicyService(
        PolicyConfig(policy="greedy", lease_seconds=40.0),
        clock=lambda: now[0], journal=journal,
    )
    service.submit_transfers("wf", "j1", [spec("a")])
    size, commits = journal.journal_path.stat().st_size, journal.commits

    # A sweep with nothing to reap inserts and retracts its tick fact.
    seen = []
    observer = service.memory.observer
    service.memory.observer = lambda fact, fid, op: (
        seen.append((type(fact), op)), observer(fact, fid, op)
    )
    assert service.reap_expired() == {"transfers": [], "cleanups": []}
    assert seen == [(LeaseSweepFact, "i"), (LeaseSweepFact, "r")]

    # A failed call leaves nothing buffered (and no fact in memory).
    resident = len(service.memory)
    with pytest.raises(KeyError):
        service.submit_transfers("wf", "bad", [spec("b"), {"lfn": "x"}])
    assert not journal.has_pending and len(service.memory) == resident
    # Its burned tids are not durable yet; the next commit carries them.
    assert (journal.journal_path.stat().st_size, journal.commits) == (size, commits)


# ------------------------------------------------------------------ (c)
def v1_config():
    return PolicyConfig(
        policy="balanced", default_streams=4, max_streams=8, cluster_count=2,
        access_control=True, lease_seconds=40.0,
        catalog=CatalogConfig(default_capacity=2500.0),
    )


def test_a_journal_written_before_coalescing_recovers_identically(tmp_path):
    """``tests/data/journal_v1`` was written by the per-mutation, seal-in-
    sorted-position code (snapshot + 4 transactions + a torn tail);
    ``expected.json`` is what that same code recovered from it."""
    expected = json.loads((JOURNAL_V1 / "expected.json").read_text())
    copy = tmp_path / "j"
    copy.mkdir()
    for name in ("snapshot.json", "journal.jsonl"):
        shutil.copy(JOURNAL_V1 / name, copy / name)

    decided = []
    state = PolicyJournal(copy).load(decided.append)
    assert (state.replayed, state.discarded) == (
        expected["replayed"], expected["discarded"]
    )
    assert [r["digest"] for r in decided] == expected["decision_digests"]
    recovered = PolicyService.recover(copy, config=v1_config(), clock=lambda: 70.0)
    assert recovered.memory.snapshot() == expected["memory"]
    assert recovered.counters() == expected["counters"]
    assert [r["digest"] for r in recovered.decision_records()] == (
        expected["decision_digests"]
    )
    assert recovered.catalog_census() == expected["catalog"]
    assert {
        str(tid): recovered.transfer_state(tid)
        for tid in range(1, expected["counters"]["tid"] + 1)
    } == expected["transfer_states"]
    # ... and keeps serving: the compacted directory is in today's format.
    recovered.submit_transfers("wf4", "j", [spec("z")])
    recovered.journal.close()
    again = PolicyService.recover(copy, config=v1_config(), clock=lambda: 70.0)
    assert again.counters()["tid"] == expected["counters"]["tid"] + 1
    again.journal.close()


# ------------------------------------------------------------------ (d)
@pytest.fixture
def encodes(monkeypatch):
    """``json.dumps`` calls made by the journal module (``json.dump``,
    the pure-Python streaming encoder, is forbidden outright)."""
    calls = []

    def dumps(obj, **kwargs):
        calls.append(obj)
        return json.dumps(obj, **kwargs)

    def dump(*_args, **_kwargs):
        raise AssertionError("the journal must not call json.dump")

    monkeypatch.setattr(journal_module, "json", types.SimpleNamespace(
        dumps=dumps, dump=dump, loads=json.loads, load=json.load,
        JSONDecodeError=json.JSONDecodeError,
    ))
    return calls


def test_a_commit_encodes_each_dirty_fact_once(tmp_path, encodes):
    now = [0.0]
    journal = PolicyJournal(tmp_path / "j", snapshot_interval=10_000)
    service = PolicyService(
        make_config("balanced", catalog=True), clock=lambda: now[0], journal=journal
    )
    txn = {"ops": [], "decisions": 0}
    mutation, decision, commit = (
        journal.record_mutation, journal.record_decision, journal.commit
    )
    commits = []

    def record_mutation(fact, fid, op):
        txn["ops"].append((fid, op))
        mutation(fact, fid, op)

    def record_decision(record):
        txn["decisions"] += 1
        decision(record)

    def counted_commit(counters, done=(), failed=()):
        inserted = {fid for fid, op in txn["ops"] if op == "i"}
        retracted = {fid for fid, op in txn["ops"] if op == "r"}
        dirty = {fid for fid, _op in txn["ops"]} - (inserted & retracted)
        mutations = len(txn["ops"])
        expected = len(dirty) + txn["decisions"] + 1
        txn["ops"], txn["decisions"] = [], 0
        del encodes[:]
        commit(counters, done, failed)
        commits.append((mutations, len(encodes), expected, len(dirty)))

    journal.record_mutation = record_mutation
    journal.record_decision = record_decision
    journal.commit = counted_commit
    service.memory.observer = record_mutation
    Driver(service, 3, now).run(80)

    assert len(commits) > 40
    assert all(actual == expected for _m, actual, expected, _d in commits)
    # The coalescing is real on this stream: fewer fact encodes than mutations.
    assert sum(c[0] for c in commits) > 2 * sum(c[3] for c in commits)

    # A snapshot: the head, then one encode per fact and per decision.
    del encodes[:]
    journal.write_snapshot(service)
    journal.close()
    assert len(encodes) == 1 + len(service.memory) + len(service.decision_records())
    decided = []
    assert PolicyJournal(tmp_path / "j").load(decided.append).replayed == 0
    assert decided == service.decision_records()


# ------------------------------------------------------------------ snapshot failure
def test_a_failed_snapshot_does_not_fail_the_committed_call(tmp_path, monkeypatch):
    journal = PolicyJournal(tmp_path / "j", snapshot_interval=2)
    config = PolicyConfig(policy="greedy", default_streams=4, max_streams=50)
    service = PolicyService(config, journal=journal)
    service.submit_transfers("wf", "j1", [spec("a")])

    def no_space(_src, _dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    snapshots = journal.snapshots
    monkeypatch.setattr(journal_module.os, "replace", no_space)
    advice = service.submit_transfers("wf", "j2", [spec("b")])
    monkeypatch.undo()

    assert [a.action for a in advice] == ["transfer"]
    assert journal.snapshots == snapshots and journal.wants_snapshot
    assert not (tmp_path / "j" / "snapshot.json.tmp").exists()
    failures = service.metrics.get("repro_policy_journal_snapshot_failures_total")
    assert failures.value() == 1

    # The transfer is durable although its snapshot never landed.
    copy = tmp_path / "copy"
    shutil.copytree(tmp_path / "j", copy)
    crashed = PolicyService.recover(copy, config=config)
    assert crashed.transfer_state(advice[0].tid) == "in_progress"
    crashed.journal.close()

    # The journal still takes commits, and the next one snapshots.
    more = service.submit_transfers("wf", "j3", [spec("c")])
    assert journal.snapshots == snapshots + 1 and not journal.wants_snapshot
    assert os.path.getsize(journal.journal_path) == 0
    journal.close()
    recovered = PolicyService.recover(tmp_path / "j", config=config)
    assert recovered.transfer_state(advice[0].tid) == "in_progress"
    assert recovered.transfer_state(more[0].tid) == "in_progress"
    recovered.journal.close()


# ------------------------------------------------------------------ fsync order
def durability_calls(tmp_path, monkeypatch, fsync):
    """Drive a seeded journaled service; return its ``os.fsync`` (by
    target), ``os.replace`` and journal-truncation calls in order."""
    path = tmp_path / f"fsync-{fsync}"
    journal = PolicyJournal(path, snapshot_interval=7, fsync=fsync)
    targets = {
        "directory": path,
        "journal": journal.journal_path,
        "temp file": journal.snapshot_path.with_suffix(".json.tmp"),
    }
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync_(fd):
        stat = os.fstat(fd)
        calls.append(next(
            name for name, target in targets.items()
            if target.exists() and os.path.samestat(stat, os.stat(target))
        ))
        real_fsync(fd)

    def replace(src, dst):
        calls.append("replace")
        real_replace(src, dst)

    def open_(file, mode="r", *args, **kwargs):
        if Path(file) == journal.journal_path and mode == "w":
            calls.append("truncate")
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(journal_module.os, "fsync", fsync_)
    monkeypatch.setattr(journal_module.os, "replace", replace)
    monkeypatch.setattr(journal_module, "open", open_, raising=False)
    now = [0.0]
    service = PolicyService(
        make_config("greedy", catalog=False), clock=lambda: now[0], journal=journal
    )
    Driver(service, 3, now).run(60)
    journal.close()
    monkeypatch.undo()
    return journal, calls


def test_fsync_mode_makes_the_snapshot_durable_before_truncating(tmp_path, monkeypatch):
    journal, calls = durability_calls(tmp_path, monkeypatch, fsync=False)
    assert "directory" not in calls and "journal" not in calls
    assert "temp file" not in calls and journal.snapshots > 2

    journal, calls = durability_calls(tmp_path, monkeypatch, fsync=True)
    # One fsync of the journal file per commit ...
    assert calls.count("journal") == journal.commits > 0
    # ... and per snapshot: temp file -> rename -> directory -> truncate.
    # Without the directory fsync a power loss can keep the truncation
    # (made durable by the next commit's fsync) and lose the rename.
    snapshot_calls = [call for call in calls if call != "journal"]
    assert journal.snapshots > 2
    assert snapshot_calls == [
        "temp file", "replace", "directory", "truncate"
    ] * journal.snapshots
