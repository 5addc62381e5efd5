"""The decision log holds each record encoded and decodes it on read.

Records come back equal to what was added, key order and leaf types
included; a returned record is the caller's own copy; the log keeps no
live record dict; a snapshot decodes one retained record at a time; and
a tenant ensemble hands back a frozen, lazily decoded view.
"""

import copy
import enum
import gc
import json
import pickle
import tracemalloc
import weakref
from collections import OrderedDict

import numpy as np
import pytest

from repro.datacatalog.model import CatalogConfig
from repro.des.faults import FaultPlan
from repro.experiments import ExperimentConfig, run_cell
from repro.experiments import runner
from repro.experiments.chaos import run_chaos_montage
from repro.policy import PolicyConfig, PolicyJournal, PolicyService, ShardedPolicyService
from repro.policy.provenance import (
    DecisionLog,
    FrozenDecisions,
    decision_digest,
    link_decisions_to_trace,
)
from repro.tenancy import AdmissionConfig
from repro.workflow.montage import MB, MontageConfig, augmented_montage

from tests.policy.conftest import spec


def assert_same_shape(got, want, path="record"):
    """``got == want`` with the same type at every node and key order at every level."""
    assert type(got) is type(want), f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys {list(got)} != {list(want)}"
        for key, value in want.items():
            assert_same_shape(got[key], value, f"{path}.{key}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), f"{path}: length"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_shape(g, w, f"{path}[{i}]")
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.fixture
def added(monkeypatch):
    """Every log's records as added (deep copies), keyed by log id."""
    logs: dict[int, tuple] = {}
    original = DecisionLog.add

    def add(self, record):
        expected = logs.setdefault(id(self), (self, OrderedDict()))[1]
        key = DecisionLog.key_of(record)
        expected.pop(key, None)
        expected[key] = copy.deepcopy(record)
        original(self, record)

    monkeypatch.setattr(DecisionLog, "add", add)
    return logs


# ------------------------------------------------------------------ round trip
def _ensemble(cfg, tenants, prefix):
    subs = [
        (t, augmented_montage(2 * MB, MontageConfig(
            n_images=cfg.n_images, name=f"{t}-wf", lfn_prefix=f"{t}-" if prefix else "",
        )))
        for t in tenants
    ]
    return runner.run_tenant_ensemble(
        cfg,
        tenants=[{"tenant": t} for t in tenants],
        submissions=subs,
        admission=AdmissionConfig(max_concurrent=1 if prefix else len(tenants)),
        scheduler="fifo",
    )


def examples_montage(tmp_path):
    assert run_cell(ExperimentConfig(extra_file_mb=2.0, n_images=4, seed=3)).success
    return {"transfer", "cleanup"}


def chaos_montage_with_recovery(tmp_path):
    cfg = ExperimentConfig(
        policy="greedy", n_images=10, threshold=20, lease_seconds=600.0,
        retries=5, journal_root=str(tmp_path / "journal"),
    )
    result = run_chaos_montage(cfg, plan=FaultPlan.single_crash(at=60.0, duration=120.0))
    assert result.metrics.success and result.journal_commits > 0
    return {"transfer", "cleanup"}


def tenant_ensemble(tmp_path):
    cfg = ExperimentConfig(
        extra_file_mb=2.0, n_images=4, seed=3, catalog=CatalogConfig(default_capacity=50e9),
    )
    assert all(m.success for m in _ensemble(cfg, ("a", "b", "c"), prefix=False).metrics)
    return {"transfer", "cleanup"}


def evicting_catalog(tmp_path):
    # Cleanup off and distinct datasets: each finished workflow leaves
    # released replicas that the next one's stage-ins push over budget.
    cfg = ExperimentConfig(
        extra_file_mb=2.0, n_images=4, seed=3, cleanup=False,
        catalog=CatalogConfig(default_capacity=5 * MB),
    )
    assert all(m.success for m in _ensemble(cfg, ("a", "b", "c"), prefix=True).metrics)
    return {"transfer", "eviction"}


def four_shard_fleet(tmp_path):
    assert run_cell(ExperimentConfig(extra_file_mb=2.0, n_images=4, seed=3, shards=4)).success
    return {"transfer", "cleanup"}


@pytest.mark.parametrize("run", [
    examples_montage, chaos_montage_with_recovery, tenant_ensemble,
    evicting_catalog, four_shard_fleet,
], ids=lambda run: run.__name__)
def test_retained_records_decode_to_what_was_added(added, tmp_path, run):
    kinds = run(tmp_path)
    seen: set = set()
    for log, expected in added.values():
        want = list(expected.items())[-log.cap:]
        got = list(log)
        assert [DecisionLog.key_of(r) for r in got] == [key for key, _ in want]
        for record, (_key, original) in zip(got, want):
            assert_same_shape(record, original)
            seen.add(record["kind"])
    assert kinds <= seen


class Mode(str, enum.Enum):
    FAST = "fast"


def test_a_record_round_trips_type_for_type():
    """Tuples stay tuples, numpy scalars stay numpy scalars, a str enum
    stays its enum: what JSON (lists, plain float) and marshal (raises
    on subclasses) could not keep."""
    record = {
        "kind": "transfer",
        "tid": 9,
        "advice": {"action": "transfer", "streams": np.int64(4), "mode": Mode.FAST},
        "ledger": {"pair": {"key": ("fg-vm", "obelix"), "before": np.float64(1.5)}},
        "firings": [],
    }
    log = DecisionLog()
    log.add(record)
    assert_same_shape(log.transfer(9), record)
    assert_same_shape(list(log)[0], record)
    assert_same_shape(list(log.frozen())[0], record)


def test_retained_bytes_follow_adds_replacements_and_evictions():
    def size(record):
        return len(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))

    log = DecisionLog(cap=2)
    a = {"kind": "transfer", "tid": 1, "digest": "x"}
    b = {"kind": "transfer", "tid": 2, "digest": "xx" * 50}
    a2 = {"kind": "transfer", "tid": 1, "digest": "yyy"}
    c = {"kind": "cleanup", "cid": 1, "digest": "z"}
    log.add(a)
    log.add(b)
    assert log.nbytes == size(a) + size(b)
    log.add(a2)   # replaces a
    assert log.nbytes == size(b) + size(a2)
    log.add(c)    # evicts b
    assert log.nbytes == size(a2) + size(c)
    assert log.records() == [a2, c]


# ------------------------------------------------------------------ no aliasing
def _tamper(record):
    record["advice"]["action"] = "tampered"
    record["firings"].append({"rule": "tampered"})
    record["ledger"]["tampered"] = True
    record["meta"]["span_seq"] = -1


class _NoSpans:
    events: list = []


def test_returned_records_are_the_callers_own():
    service = PolicyService(PolicyConfig(policy="greedy", default_streams=4, max_streams=50))
    advice = service.submit_transfers("wf", "j", [spec("a"), spec("b")])
    service.complete_transfers(done=[a.tid for a in advice])
    service.submit_cleanups("wf", "c", [("a", spec("a")["dst_url"])])
    tid = advice[0].tid
    before_one = copy.deepcopy(service.explain(tid))
    before_all = copy.deepcopy(service.decision_records())

    _tamper(service.explain(tid))
    for record in service.decision_records():
        _tamper(record)
    link_decisions_to_trace(service.decision_records(), _NoSpans())

    assert service.explain(tid) == before_one
    assert service.decision_records() == before_all
    for record in service.decision_records():
        assert record["digest"] == decision_digest(record)


def test_router_records_are_the_callers_own():
    router = ShardedPolicyService(
        PolicyConfig(policy="greedy", default_streams=4, max_streams=12), num_shards=2,
    )

    def unmoved_by_tampering(tids):
        before = copy.deepcopy({tid: router.explain(tid) for tid in tids})
        before_all = copy.deepcopy(router.decision_records())
        for tid in tids:
            _tamper(router.explain(tid))
        for record in router.decision_records():
            _tamper(record)
        assert {tid: router.explain(tid) for tid in tids} == before
        assert router.decision_records() == before_all

    try:
        advice = router.submit_transfers(
            "wf", "j", [spec("a"), spec("b", src="gsiftp://other/data")]
        )
        router.complete_transfers(done=[a.tid for a in advice])
        router.submit_cleanups("wf", "c", [("a", spec("a")["dst_url"])])
        unmoved_by_tampering([a.tid for a in advice])
        # The router's own synthetic records: advice served while down.
        for index in range(len(router.shards)):
            router.crash_shard(index)
        (degraded,) = router.submit_transfers("wf", "j2", [spec("degraded")])
        assert "unavailable" in degraded.reason
        unmoved_by_tampering([degraded.tid])
    finally:
        router.close()


class _Record(dict):
    """A record dict a weakref can follow."""


@pytest.mark.parametrize("journaled", (False, True), ids=("plain", "journaled"))
def test_the_log_keeps_no_live_record(tmp_path, journaled):
    journal = PolicyJournal(tmp_path / "j") if journaled else None
    service = PolicyService(PolicyConfig(policy="greedy", max_streams=50), journal=journal)
    refs = []
    record_decision = service._record_decision

    def tracked(record):
        record = _Record(record)
        refs.append(weakref.ref(record))
        record_decision(record)

    service._record_decision = tracked
    advice = service.submit_transfers("wf", "j", [spec("a"), spec("b")])
    service.complete_transfers(done=[a.tid for a in advice])
    service.submit_cleanups("wf", "c", [("a", spec("a")["dst_url"])])
    gc.collect()
    assert len(refs) == 3
    assert all(ref() is None for ref in refs)
    assert len(service.decisions) == 3


# ------------------------------------------------------------------ snapshot
def _full_journaled_service(path, cap):
    service = PolicyService(
        PolicyConfig(policy="greedy", max_streams=50, decision_log_cap=cap),
        journal=PolicyJournal(path, snapshot_interval=10**9),
    )
    for w in range(cap // 8 + 1):  # four transfer and four cleanup records each
        wf = f"w{w}"
        batch = [spec(f"{wf}f{k}", nbytes=1000.0 + k) for k in range(4)]
        advice = service.submit_transfers(wf, "j", batch)
        service.complete_transfers(done=[a.tid for a in advice])
        cleanups = service.submit_cleanups(wf, "c", [(s["lfn"], s["dst_url"]) for s in batch])
        service.complete_cleanups([c.cid for c in cleanups if c.action == "delete"])
        service.unregister_workflow(wf)
    assert len(service.decisions) == cap
    return service


def test_snapshot_decodes_one_record_at_a_time(tmp_path):
    service = _full_journaled_service(tmp_path / "j", cap=1024)
    journal = service.journal

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        decoded = copy.deepcopy(service.decision_records())
        whole = tracemalloc.get_traced_memory()[0] - base
        del decoded
        gc.collect()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        journal.write_snapshot(service)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert whole > 3 * 2**20  # 1,024 decoded records: several MB
    per_record = whole / len(service.decisions)
    assert peak < 16 * per_record, (peak, per_record)


def test_snapshot_bytes_are_one_json_document_of_the_state(tmp_path):
    """The streamed snapshot is byte for byte ``json.dumps`` of the whole
    state document, decision records in log order."""
    service = _full_journaled_service(tmp_path / "j", cap=64)
    service.journal.write_snapshot(service)
    memory = service.memory
    from repro.policy.journal import fact_to_doc

    doc = {
        "version": 1,
        "fingerprint": service.config_fingerprint(),
        "counters": service.counters(),
        "done": service._done_tids.ids(),
        "failed": service._failed_tids.ids(),
        "facts": [
            {"fid": fid, **fact_to_doc(fact)}
            for fid, fact in sorted((memory.fid_of(f), f) for f in memory)
        ],
        "decisions": service.decision_records(),
    }
    assert service.journal.snapshot_path.read_text() == json.dumps(doc)


# ------------------------------------------------------------------ ensemble view
@pytest.mark.parametrize("shards", (0, 2))
def test_ensemble_decisions_are_a_frozen_view_of_the_log(monkeypatch, shards):
    services = []
    build = runner.build_policy_service

    def capture(*args, **kwargs):
        services.append(build(*args, **kwargs))
        return services[-1]

    monkeypatch.setattr(runner, "build_policy_service", capture)
    cfg = ExperimentConfig(extra_file_mb=2.0, n_images=4, seed=3, shards=shards)
    result = _ensemble(cfg, ("a", "b"), prefix=False)
    (service,) = services
    assert isinstance(result.decisions, FrozenDecisions)
    records = service.decision_records()
    assert len(result.decisions) == len(records) > 0
    assert result.decisions == records
    for got, want in zip(result.decisions, records):
        assert_same_shape(got, want)
    # Frozen: later log traffic does not reach the view.
    service.submit_transfers("late", "j", [spec("late")])
    assert result.decisions == records
    # Each iteration decodes fresh records.
    next(iter(result.decisions))["advice"]["action"] = "tampered"
    assert result.decisions == records
