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
  service that never crashed.  Loading streams both files: one snapshot
  member or array element, one journal line decoded at a time, each
  decision record handed to the service's log as soon as it is read.

A fact's state (its ``__dict__``, attributes added after construction
included) is written by the one state codec in :mod:`repro.rules.facts`:
``encode_fact`` tags sets (as sorted lists), tuples and dicts with
non-string keys, and ``decode_fact`` revives the fact without
running ``__init__``.  So every fact type round-trips exactly: each JSON
scalar, list, dict, tuple and set comes back equal and of the same type
(a frozenset as a set).  Types resolve only through the closed
``FACT_TYPES`` table; nothing read from disk names a module to import.
Fact handles (fids) are preserved *relatively*: facts re-enter memory in
fid order, which keeps the rule engine's FIFO activation ordering — the
property the byte-identical-advice guarantee rests on.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Iterator, Optional

from repro.rules.facts import Fact, decode_fact, encode_fact

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

#: decodes one JSON value starting at an offset (no leading whitespace)
_DECODE = json.JSONDecoder().raw_decode
_SPACE = re.compile(r"[ \t\n\r]*").match


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
    return {"type": name, "state": encode_fact(fact)}


def fact_from_doc(doc: dict) -> Fact:
    """Revive a fact from :func:`fact_to_doc` output (skips __init__)."""
    cls = FACT_TYPES.get(doc.get("type"))
    if cls is None:
        raise JournalError(f"journal names unknown fact type {doc.get('type')!r}")
    return decode_fact(cls, doc["state"])


# --------------------------------------------------------------------------
# Streamed reading
# --------------------------------------------------------------------------
class _JsonCursor:
    """Walks one JSON object in a text, decoding a value at a time.

    ``members()`` yields each top-level key; the caller reads that
    member's value with ``value()`` or ``elements()`` before it asks for
    the next key.  So besides the text only one decoded value is held —
    for an array read through ``elements()``, one element.  Any defect
    raises ``ValueError`` (``json.JSONDecodeError`` is one).
    """

    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip(self, char: str) -> bool:
        """Skip whitespace; consume ``char`` if it comes next."""
        self.pos = _SPACE(self.text, self.pos).end()
        if self.text.startswith(char, self.pos):
            self.pos += 1
            return True
        return False

    def _expect(self, char: str) -> None:
        if not self._skip(char):
            raise ValueError(f"expected {char!r} at offset {self.pos}")

    def _items(self, opening: str, closing: str) -> Iterator[None]:
        """Yield once per item of the container that opens here."""
        self._expect(opening)
        if self._skip(closing):
            return
        while True:
            yield
            if self._skip(closing):
                return
            self._expect(",")

    def value(self):
        value, self.pos = _DECODE(self.text, _SPACE(self.text, self.pos).end())
        return value

    def elements(self) -> Iterator:
        for _ in self._items("[", "]"):
            yield self.value()

    def members(self) -> Iterator[str]:
        seen = set()
        for _ in self._items("{", "}"):
            key = self.value()
            if not isinstance(key, str) or key in seen:
                raise ValueError(f"bad or repeated member name {key!r}")
            seen.add(key)
            self._expect(":")
            yield key
        if _SPACE(self.text, self.pos).end() != len(self.text):
            raise ValueError(f"extra data at offset {self.pos}")


def _journal_lines(path: Path) -> Iterator[str]:
    """Each non-blank line of the journal file, decoded and stripped.

    Binary read + per-line decode: a torn tail can hold bytes that are
    not valid UTF-8 at all, which must read as "torn", not as a
    UnicodeDecodeError out of recover().  ``bytes.splitlines`` also
    breaks at a bare ``\\r``, as a split of the whole file would.
    """
    with open(path, "rb") as handle:
        for chunk in handle:
            for raw in chunk.splitlines():
                try:
                    text = raw.decode("utf-8").strip()
                except UnicodeDecodeError:
                    text = "\x00torn"  # cannot be a sealed record; stops replay
                if text:
                    yield text


# --------------------------------------------------------------------------
# Recovered state
# --------------------------------------------------------------------------
@dataclass
class RecoveredState:
    """What :meth:`PolicyJournal.load` reconstructs for the service
    (decision records go to the ``load`` callback instead)."""

    #: live facts keyed by their original fid
    facts: dict[int, Fact] = field(default_factory=dict)
    counters: dict[str, int] = field(
        default_factory=lambda: {"tid": 0, "cid": 0, "batch": 0, "group": 1}
    )
    done_tids: list[int] = field(default_factory=list)
    failed_tids: list[int] = field(default_factory=list)
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
    def load(self, add_decision: Callable[[dict], None]) -> RecoveredState:
        """Snapshot + committed journal suffix -> :class:`RecoveredState`.

        Decision records are handed to ``add_decision`` one at a time, in
        their original emission order, as each is read: the snapshot's,
        then each replayed transaction's once its commit record has been
        read and staged.  Nothing else keeps them.

        Only complete transactions (terminated by a ``commit`` record)
        are applied; a torn or uncommitted tail is counted in
        ``discarded`` and ignored — the client never got that call's
        response, so it will retry.  "Torn" covers every way a crash can
        mangle the file end: truncated lines, bit flips that break the
        JSON or the per-line CRC seal, structurally valid records whose
        facts cannot be revived.  Replay always stops cleanly at the last
        intact committed transaction; it never raises on tail damage.
        A snapshot is written whole before it is renamed into place, so
        any defect in it raises :class:`JournalError` naming the file.
        """
        state = RecoveredState()
        if self.snapshot_path.exists():
            try:
                self._load_snapshot(state, add_decision)
            except (
                JournalError, ValueError, KeyError, TypeError, AttributeError
            ) as exc:
                raise JournalError(
                    f"malformed snapshot {self.snapshot_path}: {exc}"
                ) from exc

        if not self.journal_path.exists():
            return state

        buffered: list[dict] = []
        tail = 0  # lines from the first torn one on
        for line in _journal_lines(self.journal_path):
            if tail:
                tail += 1
                continue
            record = _open_line(line)
            if record is None:
                tail = 1  # torn write: discard from here on
                continue
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
            except (JournalError, KeyError, TypeError, ValueError, AttributeError):
                tail = 1
                continue
            for fid, fact in revived:
                if fact is None:
                    state.facts.pop(fid, None)
                else:
                    state.facts[fid] = fact
            buffered = []
            state.counters.update(counters)
            state.done_tids.extend(done)
            state.failed_tids.extend(failed)
            for decision in decided:
                add_decision(decision)
            state.replayed += 1
        state.discarded = len(buffered) + tail
        return state

    def _load_snapshot(
        self, state: RecoveredState, add_decision: Callable[[dict], None]
    ) -> None:
        """Read ``snapshot.json`` member by member into ``state``.

        Its text is held whole, but each fact is revived and each
        decision record handed on as soon as it is decoded.  The version
        must be the first member, so it is checked before anything is
        revived.
        """
        cursor = _JsonCursor(self.snapshot_path.read_text(encoding="utf-8"))
        members = cursor.members()
        if next(members, None) != "version":
            raise ValueError("the first member is not 'version'")
        version = cursor.value()
        if version != _SNAPSHOT_VERSION:
            raise JournalError(f"unsupported snapshot version {version!r}")
        for key in members:
            if key == "facts":
                for doc in cursor.elements():
                    state.facts[int(doc["fid"])] = fact_from_doc(doc)
            elif key == "decisions":
                for record in cursor.elements():
                    add_decision(record)
            else:
                value = cursor.value()
                if key == "fingerprint":
                    state.fingerprint = value
                elif key == "counters":
                    state.counters.update(value)
                elif key == "done":
                    state.done_tids = list(value)
                elif key == "failed":
                    state.failed_tids = list(value)
