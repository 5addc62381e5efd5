"""Decision provenance: per-advice "why" records.

Every piece of advice the Policy Service emits can carry a compact
*decision record*: the rule firings that produced it (rule name, salience
tier, and the working-memory operations each firing performed, via the
attribute-level change log), the ledger values that gated it (host-pair /
cluster / tenant budgets before and after the batch), and the group ids
and lease deadlines it minted.  Records are linked to the request by
tid/cid and batch id, journaled alongside policy memory so recovery
reproduces them byte-identically, and surfaced by
``PolicyService.explain``, ``GET /policy/explain/<tid>``, and the
``repro explain`` CLI.

Determinism
-----------
A record is built entirely from simulation-derived state: fact
attributes, rule names, salience tiers, and change-log operations.  No
wall clocks, object ids, or raw fact ids (fids are engine bookkeeping;
records reference facts by :func:`stable_ref`).  The same memory fires
the same rules in the same order whatever matched them — the join
network, the reference session, one service or a shard fleet — so the
records come out **byte-identical**; :func:`decision_digest` is the
equality witness used by the tests and the acceptance criteria.

Shard invariance
----------------
Transfers of one (src_host, dst_host) pair are routed to one shard, so
pair and cluster ledger values match the single-service run.  The only
shard-local value in a record is the advice's group id; the router
rewrites it to the canonical id it stamped on the merged advice and
recomputes the digest, making ``explain`` output independent of the
shard count.  Shard identity and batch numbers live in the record's
``meta`` section, which the digest deliberately excludes.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from collections import OrderedDict
from typing import Iterable, Iterator, Optional

from repro.datacatalog.model import (
    EvictionSweepFact,
    ReplicaRecordFact,
    SiteCapacityFact,
)
from repro.policy.model import (
    CleanupFact,
    ClusterAllocationFact,
    HostPairFact,
    LeaseSweepFact,
    StagedFileFact,
    TransferFact,
)
from repro.policy.rules_fairshare import TenantFact
from repro.policy.salience import TIERS
from repro.rules import Fact

__all__ = [
    "DecisionLog",
    "FiringCollector",
    "FrozenDecisions",
    "stable_ref",
    "tier_name",
    "canonical_json",
    "decision_digest",
    "ledger_snapshot",
    "transfer_record",
    "cleanup_record",
    "eviction_record",
    "index_firings",
    "attribute_firings_by_ref",
    "degraded_record",
    "degraded_cleanup_record",
    "rewrite_group_id",
    "link_decisions_to_trace",
    "render_narrative",
]


#: salience value -> first-declared tier name (RESOURCE_CREATE wins 70,
#: GROUP_CREATE wins 60 — declaration order in ``salience.TIERS``).
_TIER_NAMES: dict[int, str] = {}
for _name, _value in TIERS.items():
    _TIER_NAMES.setdefault(_value, _name)


def tier_name(salience: int) -> str:
    """Name of a salience tier (the bare integer when unnamed)."""
    return _TIER_NAMES.get(salience, str(salience))


def stable_ref(fact: Fact) -> str:
    """A deterministic, engine- and shard-independent reference to a fact.

    Raw fact ids are allocation-order bookkeeping and differ across
    shards; records reference facts by their domain identity instead.
    """
    if isinstance(fact, TransferFact):
        return f"transfer:{fact.tid}"
    if isinstance(fact, CleanupFact):
        return f"cleanup:{fact.cid}"
    if isinstance(fact, StagedFileFact):
        return f"staged:{fact.lfn}@{fact.dst_url}"
    if isinstance(fact, HostPairFact):
        return f"pair:{fact.src_host}->{fact.dst_host}"
    if isinstance(fact, ClusterAllocationFact):
        return f"cluster:{fact.src_host}->{fact.dst_host}/{fact.cluster}"
    if isinstance(fact, LeaseSweepFact):
        return "sweep"
    if isinstance(fact, ReplicaRecordFact):
        return f"replica:{fact.lfn}@{fact.url}"
    if isinstance(fact, SiteCapacityFact):
        return f"site:{fact.site}"
    if isinstance(fact, EvictionSweepFact):
        return "eviction-sweep"
    # Extension facts (access control, fair share, priorities) are
    # identified by class name plus their most distinguishing attributes.
    name = type(fact).__name__.removesuffix("Fact").lower()
    for attrs in (("tenant",), ("workflow", "job"), ("workflow",), ("host",)):
        if all(hasattr(fact, a) for a in attrs):
            return f"{name}:" + "/".join(str(getattr(fact, a)) for a in attrs)
    return name


def canonical_json(doc) -> str:
    """The one JSON encoding used for digests and journaled records."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def decision_digest(record: dict) -> str:
    """sha256 over the record's canonical content.

    ``meta`` (batch number, shard, span linkage) and any existing
    ``digest`` are excluded: they describe *where* the decision was made,
    not *what* was decided — the digest must match across shard counts,
    crash recovery and the reference session.
    """
    core = {k: v for k, v in record.items() if k not in ("digest", "meta")}
    return hashlib.sha256(canonical_json(core).encode("utf-8")).hexdigest()


class FiringCollector:
    """Session ``firing_listener``: captures every firing with its ops.

    Each entry is ``(rule, bindings, ops)`` where ``ops`` is the
    oldest-first slice of the working-memory change log the firing
    produced (``(fid, fact, op, changed)`` tuples).
    """

    __slots__ = ("firings",)

    def __init__(self) -> None:
        self.firings: list[tuple] = []

    def __call__(self, rule, bindings, ops) -> None:
        self.firings.append((rule, bindings, ops))


def _bound_ids(bindings: dict) -> tuple[set, set]:
    """Transfer tids / cleanup cids appearing in a firing's bindings."""
    tids: set[int] = set()
    cids: set[int] = set()
    for value in bindings.values():
        items = value if isinstance(value, (list, tuple, set)) else (value,)
        for item in items:
            if isinstance(item, TransferFact):
                tids.add(item.tid)
            elif isinstance(item, CleanupFact):
                cids.add(item.cid)
    return tids, cids


def _encode_firing(rule, ops: Iterable) -> dict:
    return {
        "rule": rule.name,
        "salience": rule.salience,
        "tier": tier_name(rule.salience),
        "ops": [
            {
                "op": op,
                "fact": stable_ref(fact),
                "changed": sorted(changed) if changed else None,
            }
            for _fid, fact, op, changed in ops
        ],
    }


def index_firings(firings: Iterable[tuple]) -> tuple[dict, dict]:
    """Encode a batch's firings once; file each under the ids it bound.

    Returns ``(by_tid, by_cid)``: transfer id / cleanup id -> the encoded
    firings attributable to it, in firing order.  Attribution is by
    *bindings*: a firing belongs to a record when it bound one of the
    record's facts, whether or not it mutated it (the group-creation
    rule, for instance, binds the transfer but only asserts a host-pair
    fact).  One firing may belong to several records (batch
    de-duplication binds both twins); they then share one encoded dict,
    which nothing downstream mutates.
    """
    by_tid: dict[int, list[dict]] = {}
    by_cid: dict[int, list[dict]] = {}
    for rule, bindings, ops in firings:
        tids, cids = _bound_ids(bindings)
        if not tids and not cids:
            continue
        encoded = _encode_firing(rule, ops)
        for tid in tids:
            by_tid.setdefault(tid, []).append(encoded)
        for cid in cids:
            by_cid.setdefault(cid, []).append(encoded)
    return by_tid, by_cid


def attribute_firings_by_ref(firings: Iterable[tuple], refs: frozenset) -> list[dict]:
    """Encode the firings whose ops touched any of the given stable refs.

    Eviction victims carry no tid/cid, so binding-based attribution
    cannot find them; instead a firing belongs to a victim's record when
    it mutated or retracted the victim's replica or staged-file fact.
    One eviction-sweep firing may evict several replicas and therefore
    belong to several records.
    """
    attributed = []
    for rule, _bindings, ops in firings:
        encoded = _encode_firing(rule, ops)
        if any(op["fact"] in refs for op in encoded["ops"]):
            attributed.append(encoded)
    return attributed


# --------------------------------------------------------------------------
# Ledger snapshots
# --------------------------------------------------------------------------
def ledger_snapshot(memory, cleanup_files: Optional[Iterable[tuple]] = None) -> dict:
    """The budget/ledger state a batch's decision records cite, by stable key.

    A probe, not a census: its cost follows the ledgers and the batch,
    never the resident staged files.  Transfer records (``cleanup_files``
    left out) consult the host-pair, cluster and tenant ledgers; cleanup
    records consult only the staged-file entries of the batch's own
    ``(lfn, url)`` pairs, fetched through the memory's hash index.
    """
    if cleanup_files is not None:
        staged = {}
        for lfn, url in cleanup_files:
            matches = memory.lookup(StagedFileFact, lfn=lfn, dst_url=url)
            if matches:
                newest = matches[-1]  # one key per file: the last match wins
                staged[f"{lfn}@{url}"] = {
                    "status": newest.status,
                    "users": sorted(newest.users),
                }
        return {"staged": staged}
    return {
        "pairs": {
            f"{f.src_host}->{f.dst_host}": {
                "allocated": f.allocated,
                "threshold": f.threshold,
            }
            for f in memory.facts_of(HostPairFact)
        },
        "clusters": {
            f"{f.src_host}->{f.dst_host}/{f.cluster}": {"allocated": f.allocated}
            for f in memory.facts_of(ClusterAllocationFact)
        },
        "tenants": {
            f.tenant: {
                "inflight_streams": f.inflight_streams,
                "bytes_staged": f.bytes_staged,
            }
            for f in memory.facts_of(TenantFact)
        },
    }


def _pair_entry(key: str, before: dict, after: dict) -> Optional[dict]:
    b, a = before.get(key), after.get(key)
    if b is None and a is None:
        return None
    return {"before": b, "after": a}


def _transfer_ledger(fact: TransferFact, before: dict, after: dict) -> dict:
    """The slice of the before/after snapshots this transfer consulted."""
    ledger: dict = {}
    pair_key = f"{fact.src_host}->{fact.dst_host}"
    entry = _pair_entry(pair_key, before["pairs"], after["pairs"])
    if entry is not None:
        ledger["pair"] = {"key": pair_key, **entry}
    if fact.cluster is not None:
        cluster_key = f"{pair_key}/{fact.cluster}"
        entry = _pair_entry(cluster_key, before["clusters"], after["clusters"])
        if entry is not None:
            ledger["cluster"] = {"key": cluster_key, **entry}
    if fact.tenant:
        entry = _pair_entry(fact.tenant, before["tenants"], after["tenants"])
        if entry is not None:
            ledger["tenant"] = {"key": fact.tenant, **entry}
    return ledger


def _cleanup_ledger(fact: CleanupFact, before: dict, after: dict) -> dict:
    ledger: dict = {}
    staged_key = f"{fact.lfn}@{fact.url}"
    entry = _pair_entry(staged_key, before["staged"], after["staged"])
    if entry is not None:
        ledger["staged"] = {"key": staged_key, **entry}
    return ledger


# --------------------------------------------------------------------------
# Record builders
# --------------------------------------------------------------------------
def transfer_record(
    fact: TransferFact,
    advice,
    firings: list[dict],
    before: dict,
    after: dict,
    *,
    batch: int,
    shard: Optional[int] = None,
) -> dict:
    record = {
        "kind": "transfer",
        "tid": fact.tid,
        "workflow": fact.workflow,
        "job": fact.job,
        "lfn": fact.lfn,
        "src_url": fact.src_url,
        "dst_url": fact.dst_url,
        "nbytes": fact.nbytes,
        "policy_free": False,
        "advice": {
            "action": advice.action,
            "streams": advice.streams,
            "group_id": advice.group_id,
            "priority": advice.priority,
            "reason": advice.reason,
            "wait_for": advice.wait_for,
            "lease_deadline": advice.lease_deadline,
        },
        "firings": firings,
        "ledger": _transfer_ledger(fact, before, after),
        "meta": {"batch": batch, "shard": shard},
    }
    record["digest"] = decision_digest(record)
    return record


def cleanup_record(
    fact: CleanupFact,
    advice,
    firings: list[dict],
    before: dict,
    after: dict,
    *,
    batch: int,
    shard: Optional[int] = None,
) -> dict:
    record = {
        "kind": "cleanup",
        "cid": fact.cid,
        "workflow": fact.workflow,
        "job": fact.job,
        "lfn": fact.lfn,
        "url": fact.url,
        "policy_free": False,
        "advice": {
            "action": advice.action,
            "reason": advice.reason,
            "lease_deadline": advice.lease_deadline,
        },
        "firings": firings,
        "ledger": _cleanup_ledger(fact, before, after),
        "meta": {"batch": batch, "shard": shard},
    }
    record["digest"] = decision_digest(record)
    return record


def eviction_record(
    victim: dict,
    firings: list[dict],
    *,
    shard: Optional[int] = None,
) -> dict:
    """Provenance for one catalog eviction.

    ``victim`` is the document the eviction rule appended to
    ``catalog_evicted`` (lfn, site, url, nbytes, policy, reason, now —
    all simulation-derived, so the digest survives sharding and crash
    replay).  The eviction is keyed by (url, sweep time): the
    same URL may be evicted again after a later re-staging.
    """
    record = {
        "kind": "eviction",
        "lfn": victim["lfn"],
        "site": victim["site"],
        "url": victim["url"],
        "nbytes": victim["nbytes"],
        "now": victim["now"],
        "policy_free": False,
        "advice": {
            "action": "evict",
            "policy": victim["policy"],
            "reason": victim["reason"],
        },
        "firings": firings,
        "ledger": {},
        "meta": {"batch": None, "shard": shard},
    }
    record["digest"] = decision_digest(record)
    return record


def degraded_record(
    tid: int,
    workflow: str,
    lfn: str,
    dst_url: str,
    *,
    shard: Optional[int] = None,
    reason: str = "shard unavailable; policy-free advice",
) -> dict:
    """Synthetic record for advice the router served while a shard was down.

    No rules fired and no ledgers gated the decision — the record says so
    explicitly rather than pretending the advice was policy-derived.
    """
    record = {
        "kind": "transfer",
        "tid": tid,
        "workflow": workflow,
        "lfn": lfn,
        "dst_url": dst_url,
        "policy_free": True,
        "advice": {"action": "transfer", "reason": reason},
        "firings": [],
        "ledger": {},
        "meta": {"batch": None, "shard": shard},
    }
    record["digest"] = decision_digest(record)
    return record


def degraded_cleanup_record(
    cid: int,
    workflow: str,
    lfn: str,
    url: str,
    *,
    shard: Optional[int] = None,
    reason: str = "shard unavailable; cleanup deferred",
) -> dict:
    """Synthetic record for a cleanup the router answered conservatively.

    Minted when the owning shard was unavailable, or when a degraded
    transfer was still in flight to the URL — either way no shard held
    the refcounts, so the only safe answer was "keep the file".
    """
    record = {
        "kind": "cleanup",
        "cid": cid,
        "workflow": workflow,
        "lfn": lfn,
        "url": url,
        "policy_free": True,
        "advice": {"action": "skip", "reason": reason},
        "firings": [],
        "ledger": {},
        "meta": {"batch": None, "shard": shard},
    }
    record["digest"] = decision_digest(record)
    return record


def rewrite_group_id(record: dict, group_id: int) -> dict:
    """Router-side canonicalisation: replace a shard-local group id.

    Returns a new record with the advice's group id replaced and the
    digest recomputed; everything else is preserved.
    """
    rewritten = json.loads(json.dumps(record))
    advice = rewritten.get("advice", {})
    if advice.get("group_id") is not None:
        advice["group_id"] = group_id
    rewritten["digest"] = decision_digest(rewritten)
    return rewritten


# --------------------------------------------------------------------------
# The bounded decision log
# --------------------------------------------------------------------------
class DecisionLog:
    """Bounded, insertion-ordered store of decision records.

    Keys are ``("t", tid)`` / ``("c", cid)``; the oldest records are
    evicted first.  Eviction order is part of the replay contract: the
    journal replays records in their original order, so a recovered log
    holds exactly the records an uninterrupted run would hold.

    Each record is held pickled (~1.35 kB, against ~4.8 kB as live
    dicts) and decoded afresh on every read, so no caller can reach into
    a retained record.  Pickle round-trips a record type for type and in
    key order; the bytes never leave the process.
    """

    def __init__(self, cap: int = 4096):
        if cap < 1:
            raise ValueError("decision log cap must be >= 1")
        self.cap = int(cap)
        self._records: OrderedDict[tuple, bytes] = OrderedDict()
        #: encoded bytes held (``repro_policy_retained_bytes``)
        self.nbytes = 0

    @staticmethod
    def key_of(record: dict) -> tuple:
        if record.get("kind") == "cleanup":
            return ("c", record["cid"])
        if record.get("kind") == "eviction":
            return ("e", record["url"], record["now"])
        return ("t", record["tid"])

    def add(self, record: dict) -> None:
        key = self.key_of(record)
        blob = pickle.dumps(record, pickle.HIGHEST_PROTOCOL)
        if key in self._records:
            self.nbytes -= len(self._records.pop(key))
        self._records[key] = blob
        self.nbytes += len(blob)
        while len(self._records) > self.cap:
            self.nbytes -= len(self._records.popitem(last=False)[1])

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[dict]:
        """All records, oldest first, each decoded when reached."""
        return map(pickle.loads, self._records.values())

    def transfer(self, tid: int) -> Optional[dict]:
        blob = self._records.get(("t", tid))
        return None if blob is None else pickle.loads(blob)

    def records(self) -> list[dict]:
        """All records, oldest first."""
        return list(self)

    def frozen(self) -> FrozenDecisions:
        """The records as they stand now, decoded only when read."""
        return FrozenDecisions(self._records.values())


class FrozenDecisions:
    """A read-only, lazily decoded copy of a decision log.

    Holds its own tuple of the log's encoded records (the bytes are
    shared, never copied) and decodes each record when iterated.
    Compares equal to a list of the same records in the same order.
    """

    __slots__ = ("_blobs",)

    def __init__(self, blobs: Iterable[bytes] = ()):
        self._blobs = tuple(blobs)

    @classmethod
    def of(cls, records: Iterable[dict]) -> FrozenDecisions:
        return cls(pickle.dumps(r, pickle.HIGHEST_PROTOCOL) for r in records)

    def __len__(self) -> int:
        return len(self._blobs)

    def __iter__(self) -> Iterator[dict]:
        return map(pickle.loads, self._blobs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (FrozenDecisions, list)):
            return NotImplemented
        return list(self) == list(other)


# --------------------------------------------------------------------------
# Narrative rendering (the CLI's --format text)
# --------------------------------------------------------------------------
def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)


def render_narrative(record: dict) -> str:
    """A human-readable causal story for one decision record."""
    lines: list[str] = []
    kind = record.get("kind", "transfer")
    if kind == "transfer":
        rid = record.get("tid")
    elif kind == "eviction":
        rid = record.get("url")
    else:
        rid = record.get("cid")
    advice = record.get("advice", {})
    head = f"{kind} {rid}: {advice.get('action', '?')}"
    if advice.get("reason"):
        head += f" ({advice['reason']})"
    lines.append(head)
    if kind == "transfer":
        lines.append(
            f"  {record.get('lfn')}: {record.get('src_url')} -> "
            f"{record.get('dst_url')} [{_fmt(record.get('nbytes'))} bytes]"
        )
    else:
        lines.append(f"  {record.get('lfn')} at {record.get('url')}")
    if kind == "eviction":
        lines.append(
            f"  evicted from site {record.get('site')} at t={_fmt(record.get('now'))} "
            f"[{_fmt(record.get('nbytes'))} bytes, policy {advice.get('policy')}]"
        )
    else:
        lines.append(
            f"  workflow {record.get('workflow')}"
            + (f", job {record['job']}" if record.get("job") else "")
        )
    if record.get("policy_free"):
        lines.append("  POLICY-FREE: no rules fired (degraded advice)")
    if kind == "transfer" and advice.get("action") == "transfer":
        lines.append(
            f"  granted {_fmt(advice.get('streams'))} stream(s) in group "
            f"{_fmt(advice.get('group_id'))}, priority {_fmt(advice.get('priority'))}"
        )
    if advice.get("wait_for") is not None:
        lines.append(f"  waiting on transfer {advice['wait_for']}")
    if advice.get("lease_deadline") is not None:
        lines.append(f"  lease expires at t={_fmt(advice['lease_deadline'])}")
    ledger = record.get("ledger", {})
    for section in ("pair", "cluster", "tenant", "staged"):
        entry = ledger.get(section)
        if not entry:
            continue
        lines.append(
            f"  {section} ledger {entry.get('key')}: "
            f"{_fmt(entry.get('before'))} -> {_fmt(entry.get('after'))}"
        )
    firings = record.get("firings", [])
    lines.append(f"  causal chain ({len(firings)} firing(s)):")
    for firing in firings:
        lines.append(
            f"    [{firing.get('tier')}/{_fmt(firing.get('salience'))}] "
            f"{firing.get('rule')}"
        )
        for op in firing.get("ops", []):
            verb = {"i": "assert", "u": "update", "r": "retract"}.get(
                op.get("op"), op.get("op")
            )
            changed = op.get("changed")
            suffix = f" ({', '.join(changed)})" if changed else ""
            lines.append(f"      {verb} {op.get('fact')}{suffix}")
    meta = record.get("meta", {})
    meta_bits = [f"batch {_fmt(meta.get('batch'))}"]
    if meta.get("shard") is not None:
        meta_bits.append(f"shard {meta['shard']}")
    if meta.get("span_seq") is not None:
        meta_bits.append(f"trace span #{meta['span_seq']}")
    lines.append("  " + ", ".join(meta_bits))
    lines.append(f"  digest {record.get('digest', '?')[:16]}…")
    return "\n".join(lines)


def link_decisions_to_trace(records: list[dict], tracer) -> list[dict]:
    """Cross-reference records with a tracer's submit spans by batch id.

    Each ``policy.submit_transfers`` / ``policy.submit_cleanups`` span
    carries the batch counter in its args; a record whose batch matches
    exactly one such span gains that span's sequence number in
    ``meta.span_seq``.  Mutates and returns ``records``.
    """
    if tracer is None:
        return records
    by_batch: dict[int, list[int]] = {}
    for event in getattr(tracer, "events", []):
        if event.get("ph") != "X":
            continue
        batch = event.get("args", {}).get("batch_id")
        if batch is not None:
            by_batch.setdefault(batch, []).append(event["seq"])
    for record in records:
        batch = record.get("meta", {}).get("batch")
        seqs = by_batch.get(batch, [])
        record.setdefault("meta", {})["span_seq"] = (
            seqs[0] if len(seqs) == 1 else None
        )
    return records
