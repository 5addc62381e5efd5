"""Durable Policy Memory: write-ahead journal + snapshots.

The paper's Policy Service is a long-lived daemon whose *persistent*
policy memory is what lets concurrent workflows share staged files
safely.  This module makes that memory survive a crash:

* every service call that changes working memory appends one
  transaction to a JSONL **journal**: the *net* effect per fact — one
  full-state record for each fact the call left inserted or updated, one
  retract record for each fact it removed — encoded once at commit and
  flushed together with a ``commit`` record carrying the service
  counters, so a torn write can only ever lose the *uncommitted tail*,
  never corrupt acknowledged state (``docs/durability.md``);
* every ``snapshot_interval`` commits the whole memory is dumped to a
  **snapshot** file (atomic tmp-file + rename) and the journal is
  truncated, bounding replay time on restart;
* :meth:`PolicyService.recover` loads the snapshot, replays the committed
  journal suffix, restores the id counters and the done/failed retention
  sets, and resumes journaling — producing advice byte-identical to a
  service that never crashed.

Facts are serialized generically from their ``__dict__`` (sets become
sorted lists) and revived without running ``__init__``, so every fact
type round-trips exactly, including attributes added after construction.
Fact handles (fids) are preserved *relatively*: facts re-enter memory in
fid order, which keeps the rule engine's FIFO activation ordering — the
property the byte-identical-advice guarantee rests on.
"""

from __future__ import annotations

import contextlib
import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Optional

from repro.rules import Fact

from repro.policy.model import (
    CleanupFact,
    ClusterAllocationFact,
    HostPairFact,
    LeaseSweepFact,
    StagedFileFact,
    TransferFact,
)
from repro.policy.rules_access import HostDenialFact, WorkflowQuotaFact
from repro.policy.rules_fairshare import TenantFact, TenantWorkflowFact
from repro.policy.rules_priority import JobPriorityFact
from repro.datacatalog.model import (
    EvictionSweepFact,
    ReplicaRecordFact,
    SiteCapacityFact,
)

__all__ = ["PolicyJournal", "JournalError", "RecoveredState"]

#: fact types the journal knows how to revive (name -> class)
FACT_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        TransferFact,
        StagedFileFact,
        HostPairFact,
        ClusterAllocationFact,
        CleanupFact,
        LeaseSweepFact,
        HostDenialFact,
        WorkflowQuotaFact,
        JobPriorityFact,
        TenantFact,
        TenantWorkflowFact,
        ReplicaRecordFact,
        SiteCapacityFact,
        EvictionSweepFact,
    )
}

_SNAPSHOT_VERSION = 1


class JournalError(RuntimeError):
    """Unusable journal state (type mismatch, incompatible config...)."""


# --------------------------------------------------------------------------
# Journal-line integrity
# --------------------------------------------------------------------------
def _seal(payload: str) -> int:
    """CRC32 of a record's canonical (sorted-keys) JSON text."""
    return zlib.crc32(payload.encode("utf-8"))


def _sealed_line(record: dict) -> str:
    """Serialize ``record`` with a CRC32 seal over its canonical form.

    A torn write usually truncates a line (caught by the JSON parser), but
    a corrupted sector can also flip bits *inside* a line that still parses
    — the seal lets :meth:`PolicyJournal.load` reject those too instead of
    replaying silently wrong state.

    The seal is spliced into the canonical text as a last ``"ck"`` member
    (one encode per line); the reader pops it wherever it sits.
    """
    payload = json.dumps(record, sort_keys=True)
    return f'{payload[:-1]}, "ck": {_seal(payload)}}}'


def _open_line(line: str) -> Optional[dict]:
    """Parse + verify one sealed journal line; None when unusable.

    Any defect — invalid JSON, a non-object record, a missing or wrong
    seal — marks the line (and therefore everything after it) as a torn
    tail to be discarded.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict):
        return None
    seal = record.pop("ck", None)
    if seal != _seal(json.dumps(record, sort_keys=True)):
        return None
    return record


# --------------------------------------------------------------------------
# Fact (de)serialization
# --------------------------------------------------------------------------
def _encode_value(value):
    if isinstance(value, set):
        return {"__set__": sorted(value)}
    return value


def _decode_value(value):
    if isinstance(value, dict) and "__set__" in value:
        return set(value["__set__"])
    return value


def _write_array(handle: IO[str], docs) -> None:
    """Stream ``docs`` to ``handle`` as one JSON array, one encode each."""
    handle.write("[")
    sep = ""
    for doc in docs:
        handle.write(sep + json.dumps(doc))
        sep = ", "
    handle.write("]")


def fact_to_doc(fact: Fact) -> dict:
    """JSON-able full-state record of a fact."""
    name = type(fact).__name__
    if name not in FACT_TYPES:
        raise JournalError(f"cannot journal unknown fact type {name!r}")
    return {
        "type": name,
        "state": {k: _encode_value(v) for k, v in fact.__dict__.items()},
    }


def fact_from_doc(doc: dict) -> Fact:
    """Revive a fact from :func:`fact_to_doc` output (skips __init__)."""
    cls = FACT_TYPES.get(doc.get("type"))
    if cls is None:
        raise JournalError(f"journal names unknown fact type {doc.get('type')!r}")
    fact = cls.__new__(cls)
    fact.__dict__.update({k: _decode_value(v) for k, v in doc["state"].items()})
    return fact


# --------------------------------------------------------------------------
# Recovered state
# --------------------------------------------------------------------------
@dataclass
class RecoveredState:
    """What :meth:`PolicyJournal.load` reconstructs for the service."""

    #: live facts keyed by their original fid
    facts: dict[int, Fact] = field(default_factory=dict)
    counters: dict[str, int] = field(
        default_factory=lambda: {"tid": 0, "cid": 0, "batch": 0, "group": 1}
    )
    done_tids: list[int] = field(default_factory=list)
    failed_tids: list[int] = field(default_factory=list)
    #: decision-provenance records in their original emission order
    decisions: list[dict] = field(default_factory=list)
    fingerprint: Optional[dict] = None
    #: committed transactions replayed from the journal
    replayed: int = 0
    #: trailing uncommitted/torn records that were discarded
    discarded: int = 0

    def facts_in_fid_order(self) -> list[tuple[int, Fact]]:
        return sorted(self.facts.items())


class PolicyJournal:
    """Append-only JSONL journal + periodic snapshots under one directory.

    Parameters
    ----------
    path:
        Directory holding ``journal.jsonl`` and ``snapshot.json``
        (created if missing).
    snapshot_interval:
        Commits between automatic snapshots (journal truncation).
    fsync:
        Force an ``os.fsync`` after every commit, and make each snapshot
        durable before the journal is truncated (temp file, rename, then
        the directory) — real crash-durability at real disk cost; off by
        default for simulations and tests.
    """

    def __init__(self, path, snapshot_interval: int = 1000, fsync: bool = False):
        if snapshot_interval < 1:
            raise ValueError("snapshot_interval must be >= 1")
        self.dir = Path(path)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.dir / "journal.jsonl"
        self.snapshot_path = self.dir / "snapshot.json"
        self.snapshot_interval = int(snapshot_interval)
        self.fsync = bool(fsync)
        self._file: Optional[IO[str]] = None
        #: the open transaction: net working-memory effect per fid in
        #: first-touch order (``fid -> (op, fact)``), and the decision
        #: records in emission order — nothing is encoded before commit
        self._dirty: dict[int, tuple[str, Fact]] = {}
        self._pending: list[dict] = []
        self._commits_since_snapshot = 0
        self.commits = 0
        self.snapshots = 0

    # ------------------------------------------------------------------ state
    def has_state(self) -> bool:
        """True when the directory already holds journal/snapshot data."""
        if self.snapshot_path.exists():
            return True
        try:
            return self.journal_path.stat().st_size > 0
        except OSError:
            return False

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def _handle(self) -> IO[str]:
        if self._file is None:
            self._file = open(self.journal_path, "a", encoding="utf-8")
        return self._file

    # ------------------------------------------------------------------ write
    def record_mutation(self, fact: Fact, fid: int, op: str) -> None:
        """Note one working-memory mutation of the open transaction.

        O(1): only the *net* effect per fid is kept, because replay only
        ever applies whole transactions.  A fact inserted and retracted
        inside one transaction leaves nothing; an update after an insert
        stays an insert; the state written is the fact's state at commit.
        """
        dirty = self._dirty
        if op == "r":
            if fid in dirty and dirty[fid][0] == "i":
                del dirty[fid]
            else:
                dirty[fid] = ("r", fact)
            return
        if fid not in dirty:
            dirty[fid] = (op, fact)

    def record_decision(self, record: dict) -> None:
        """Buffer one decision-provenance record (flushed at commit).

        Decision records ride the same transaction as the mutations that
        produced them, so recovery replays exactly the decisions whose
        advice the client could have observed.
        """
        self._pending.append(record)

    @property
    def has_pending(self) -> bool:
        """True when the open transaction would write a record."""
        return bool(self._dirty or self._pending)

    def commit(
        self,
        counters: dict[str, int],
        done: list[int] = (),
        failed: list[int] = (),
    ) -> None:
        """Encode and flush the open transaction with its commit record.

        Each dirty fact is serialised once, from its final state, then the
        decision records in emission order.  Skipping transactions that
        changed nothing durable is the caller's job (the service does, so
        queries stay free).
        """
        lines = []
        for fid, (op, fact) in self._dirty.items():
            if op == "r":
                lines.append(_sealed_line({"op": "r", "fid": fid}))
            else:
                lines.append(
                    _sealed_line({"op": op, "fid": fid, "fact": fact_to_doc(fact)})
                )
        for decision in self._pending:
            lines.append(_sealed_line({"op": "d", "record": decision}))
        record: dict = {"op": "commit", "counters": dict(counters)}
        if done:
            record["done"] = list(done)
        if failed:
            record["failed"] = list(failed)
        lines.append(_sealed_line(record))
        self._dirty.clear()
        self._pending.clear()
        handle = self._handle()
        handle.write("\n".join(lines) + "\n")
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())
        self.commits += 1
        self._commits_since_snapshot += 1

    def abort(self) -> None:
        """Drop the open transaction of a failed call (nothing was written)."""
        self._dirty.clear()
        self._pending.clear()

    @property
    def wants_snapshot(self) -> bool:
        return self._commits_since_snapshot >= self.snapshot_interval

    def write_snapshot(self, service) -> None:
        """Dump the service's full durable state; truncate the journal.

        The snapshot lands via tmp-file + rename so a crash mid-dump
        leaves the previous snapshot/journal pair intact; if the dump
        fails with an ``OSError`` the tmp file is removed, the journal is
        left as it was, and the error propagates.  The document is
        streamed — head, then one ``json.dumps`` per fact and per decision
        record — so every element goes through the C encoder and no
        whole-memory document is ever built.  Decision records are decoded
        from the service's log one at a time, each dropped once written.
        """
        memory = service.memory
        facts = sorted((memory.fid_of(fact), fact) for fact in memory)
        head = json.dumps({
            "version": _SNAPSHOT_VERSION,
            "fingerprint": service.config_fingerprint(),
            "counters": service.counters(),
            "done": service._done_tids.ids(),
            "failed": service._failed_tids.ids(),
        })
        tmp = self.snapshot_path.with_suffix(".json.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(head[:-1])
                handle.write(', "facts": ')
                _write_array(
                    handle,
                    ({"fid": fid, **fact_to_doc(fact)} for fid, fact in facts),
                )
                handle.write(', "decisions": ')
                _write_array(handle, service.decisions)
                handle.write("}")
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            os.replace(tmp, self.snapshot_path)
            if self.fsync:  # the rename must be durable before the truncation
                directory = os.open(self.dir, os.O_RDONLY)
                try:
                    os.fsync(directory)
                finally:
                    os.close(directory)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise
        # Truncate: everything up to now lives in the snapshot.
        self.close()
        self._file = open(self.journal_path, "w", encoding="utf-8")
        self._commits_since_snapshot = 0
        self.snapshots += 1

    # ------------------------------------------------------------------ read
    def load(self) -> RecoveredState:
        """Snapshot + committed journal suffix -> :class:`RecoveredState`.

        Only complete transactions (terminated by a ``commit`` record)
        are applied; a torn or uncommitted tail is counted in
        ``discarded`` and ignored — the client never got that call's
        response, so it will retry.  "Torn" covers every way a crash can
        mangle the file end: truncated lines, bit flips that break the
        JSON or the per-line CRC seal, structurally valid records whose
        facts cannot be revived.  Replay always stops cleanly at the last
        intact committed transaction; it never raises on tail damage.
        """
        state = RecoveredState()
        if self.snapshot_path.exists():
            with open(self.snapshot_path, encoding="utf-8") as handle:
                snap = json.load(handle)
            if snap.get("version") != _SNAPSHOT_VERSION:
                raise JournalError(
                    f"unsupported snapshot version {snap.get('version')!r}"
                )
            state.fingerprint = snap.get("fingerprint")
            state.counters.update(snap.get("counters", {}))
            state.done_tids = list(snap.get("done", []))
            state.failed_tids = list(snap.get("failed", []))
            state.decisions = list(snap.get("decisions", []))
            for doc in snap.get("facts", []):
                state.facts[int(doc["fid"])] = fact_from_doc(doc)

        if not self.journal_path.exists():
            return state

        # Binary read + per-line decode: a torn tail can hold bytes that
        # are not valid UTF-8 at all, which must read as "torn", not as a
        # UnicodeDecodeError out of recover().
        raw_lines = self.journal_path.read_bytes().splitlines()
        lines = []
        for raw in raw_lines:
            try:
                text = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                text = "\x00torn"  # cannot be a sealed record; stops replay
            if text:
                lines.append(text)

        buffered: list[dict] = []
        torn_at: Optional[int] = None
        for lineno, line in enumerate(lines):
            record = _open_line(line)
            if record is None:
                torn_at = lineno  # torn write: discard from here on
                break
            if record.get("op") != "commit":
                buffered.append(record)
                continue
            try:
                # Stage the whole transaction before touching ``state`` so
                # a record that decodes but cannot be applied (unknown
                # fact type, malformed fid) discards the transaction, not
                # half of it.
                revived: list[tuple[int, Optional[Fact]]] = []
                decided: list[dict] = []
                for mutation in buffered:
                    if mutation["op"] == "d":
                        # decision records carry no fid — branch first
                        decided.append(dict(mutation["record"]))
                        continue
                    fid = int(mutation["fid"])
                    if mutation["op"] == "r":
                        revived.append((fid, None))
                    elif mutation["op"] in ("i", "u"):
                        # both ops carry the full fact state
                        revived.append((fid, fact_from_doc(mutation["fact"])))
                    else:
                        raise JournalError(
                            f"unknown journal op {mutation['op']!r}"
                        )
                counters = {
                    key: int(value)
                    for key, value in record.get("counters", {}).items()
                }
                done = [int(tid) for tid in record.get("done", [])]
                failed = [int(tid) for tid in record.get("failed", [])]
            except (JournalError, KeyError, TypeError, ValueError):
                torn_at = lineno
                break
            for fid, fact in revived:
                if fact is None:
                    state.facts.pop(fid, None)
                else:
                    state.facts[fid] = fact
            buffered = []
            state.counters.update(counters)
            state.done_tids.extend(done)
            state.failed_tids.extend(failed)
            state.decisions.extend(decided)
            state.replayed += 1
        if torn_at is not None:
            state.discarded = len(buffered) + (len(lines) - torn_at)
        else:
            state.discarded = len(buffered)
        return state
