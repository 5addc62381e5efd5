"""Decision provenance: per-advice "why" records and the explain API.

The acceptance bar: ``explain`` returns the **same causal record (same
digest)** for the same seeded request stream on the join network and
the reference session, and before/after crash recovery.  Shard-count invariance lives
in ``tests/policy/sharding/``; REST surfacing in ``test_rest.py``.
"""

import json

import pytest

from repro.policy import PolicyConfig, PolicyJournal, PolicyService
from repro.policy.model import HostPairFact, StagedFileFact, TransferFact
from repro.policy.provenance import (
    DecisionLog,
    decision_digest,
    degraded_cleanup_record,
    degraded_record,
    render_narrative,
    rewrite_group_id,
    stable_ref,
    tier_name,
)

from tests.policy.conftest import cleanup_record, spec
from tests.conftest import both_engines
from tests.reference import reference_engine


def drive(service):
    """A small request stream touching every decision shape."""
    service.submit_transfers("wf1", "j1", [spec("a"), spec("b"), spec("a")])
    service.complete_transfers(done=[1, 2])
    service.submit_transfers("wf2", "j2", [spec("a"), spec("c")])
    service.submit_cleanups(
        "wf1", "clean", [("a", "gsiftp://obelix/scratch/a")]
    )


def make_service(**kw):
    cfg = dict(policy="greedy", default_streams=4, max_streams=8)
    cfg.update(kw)
    return PolicyService(PolicyConfig(**cfg))


# ------------------------------------------------------------ record shape
def test_explain_returns_causal_record():
    service = make_service()
    drive(service)
    record = service.explain(1)
    assert record["kind"] == "transfer"
    assert record["tid"] == 1
    assert record["workflow"] == "wf1"
    assert record["lfn"] == "a"
    assert record["policy_free"] is False
    assert record["advice"]["action"] == "transfer"
    assert record["advice"]["streams"] == 4
    tiers = [f["tier"] for f in record["firings"]]
    assert "ACK" in tiers and "ALLOCATION" in tiers
    # Every firing carries a named tier and stable fact refs.
    for firing in record["firings"]:
        assert firing["tier"]
        for op in firing["ops"]:
            assert ":" in op["fact"] or op["fact"] == "sweep"
    assert record["ledger"]["pair"]["key"] == "fg-vm->obelix"
    assert record["ledger"]["pair"]["after"]["allocated"] >= 4
    assert record["digest"] == decision_digest(record)


def test_duplicate_and_skip_records_tell_why():
    service = make_service()
    drive(service)
    # tid 3 duplicated tid 1 in-batch: advice was wait/skip, not transfer.
    dup = service.explain(3)
    assert dup["advice"]["action"] in ("wait", "skip")
    # wf2 resubmitted "a" after it staged: the skip names the staged file.
    skip = service.explain(4)
    assert skip["advice"]["action"] == "skip"


def test_explain_cleanup_records_staged_ledger():
    service = make_service()
    drive(service)
    record = cleanup_record(service, 1)
    assert record["kind"] == "cleanup"
    assert record["cid"] == 1
    assert record["advice"]["action"] in ("delete", "skip", "defer")
    assert record["digest"] == decision_digest(record)


def test_unknown_ids_return_none():
    service = make_service()
    drive(service)
    assert service.explain(999) is None


def test_decision_records_oldest_first():
    service = make_service()
    drive(service)
    records = service.decision_records()
    tids = [r["tid"] for r in records if r["kind"] == "transfer"]
    assert tids == sorted(tids)
    assert any(r["kind"] == "cleanup" for r in records)


# ------------------------------------------------------- engine equivalence
def test_records_byte_identical_across_engines():
    def run():
        service = make_service()
        drive(service)
        return json.dumps(service.decision_records(), sort_keys=True)

    with reference_engine():
        expected = run()
    assert run() == expected  # meta included:
    assert '"engine"' not in expected  # a record does not say what matched


# ------------------------------------------------------------ crash recovery
@both_engines
def test_records_byte_identical_after_recovery(tmp_path, engine):
    reference = make_service()
    drive(reference)

    journaled = PolicyService(
        PolicyConfig(policy="greedy", default_streams=4, max_streams=8),
        journal=PolicyJournal(tmp_path / "j"),
    )
    drive(journaled)
    recovered = PolicyService.recover(
        tmp_path / "j",
        PolicyConfig(policy="greedy", default_streams=4, max_streams=8),
    )
    assert json.dumps(recovered.decision_records(), sort_keys=True) == json.dumps(
        reference.decision_records(), sort_keys=True
    )
    assert recovered.explain(1) == reference.explain(1)


def test_recovery_replays_eviction_order(tmp_path):
    """A recovered bounded log holds exactly what the live one held."""
    config = PolicyConfig(
        policy="greedy", default_streams=4, max_streams=50, decision_log_cap=3
    )
    journaled = PolicyService(config, journal=PolicyJournal(tmp_path / "j"))
    for i in range(6):
        journaled.submit_transfers("wf", f"j{i}", [spec(f"f{i}")])
    live = journaled.decision_records()
    assert len(live) == 3 and live[0]["tid"] == 4
    recovered = PolicyService.recover(tmp_path / "j", config)
    assert json.dumps(recovered.decision_records(), sort_keys=True) == json.dumps(
        live, sort_keys=True
    )


# ------------------------------------------------------------------ helpers
def test_decision_log_is_bounded_and_moves_readds_to_end():
    log = DecisionLog(cap=2)
    log.add({"kind": "transfer", "tid": 1, "digest": "x"})
    log.add({"kind": "transfer", "tid": 2, "digest": "x"})
    log.add({"kind": "transfer", "tid": 1, "digest": "y"})  # re-add: moves to end
    log.add({"kind": "cleanup", "cid": 1, "digest": "x"})   # evicts tid 2
    assert log.transfer(2) is None
    assert log.transfer(1)["digest"] == "y"
    assert [r.get("tid", r.get("cid")) for r in log.records()] == [1, 1]
    with pytest.raises(ValueError):
        DecisionLog(cap=0)


def test_stable_refs_use_domain_identity():
    t = TransferFact(tid=7, workflow="wf", job="j", lfn="f",
                     src_url="gsiftp://a/f", dst_url="gsiftp://b/f", nbytes=1.0)
    assert stable_ref(t) == "transfer:7"
    assert stable_ref(
        HostPairFact(src_host="a", dst_host="b", group_id=1)
    ) == "pair:a->b"
    staged = StagedFileFact(lfn="f", dst_url="gsiftp://b/f",
                            owner_tid=7, workflow="wf")
    assert stable_ref(staged) == "staged:f@gsiftp://b/f"
    assert tier_name(90) == "ACK"
    assert tier_name(-123) == "-123"


def test_digest_ignores_meta_but_covers_content():
    base = {"kind": "transfer", "tid": 1, "advice": {"action": "transfer"},
            "meta": {"shard": 0, "batch": 3}}
    other = dict(base, meta={"shard": 7, "batch": 99})
    assert decision_digest(base) == decision_digest(other)
    assert decision_digest(base) != decision_digest(
        dict(base, advice={"action": "skip"})
    )


def test_degraded_records_are_policy_free():
    record = degraded_record(5, "wf", "f", "gsiftp://b/f", shard=2)
    assert record["policy_free"] is True
    assert record["firings"] == [] and record["ledger"] == {}
    assert record["meta"]["shard"] == 2
    assert record["digest"] == decision_digest(record)
    clean = degraded_cleanup_record(3, "wf", "f", "gsiftp://b/f")
    assert clean["advice"]["action"] == "skip"
    assert "POLICY-FREE" in render_narrative(clean)


def test_rewrite_group_id_recomputes_digest():
    service = make_service()
    drive(service)
    record = service.explain(1)
    rewritten = rewrite_group_id(record, 42)
    assert rewritten["advice"]["group_id"] == 42
    assert rewritten["digest"] == decision_digest(rewritten)
    assert record["advice"]["group_id"] != 42  # original untouched
    # A record whose advice carries no group id is left alone.
    bare = {"kind": "transfer", "tid": 9,
            "advice": {"action": "skip", "group_id": None}}
    assert rewrite_group_id(bare, 42)["advice"]["group_id"] is None


def test_narrative_tells_the_causal_story():
    service = make_service()
    drive(service)
    text = render_narrative(service.explain(1))
    assert "transfer 1: transfer" in text
    assert "ALLOCATION" in text
    assert "pair ledger fg-vm->obelix" in text
    assert "digest" in text


# ------------------------------------------- single-pass firing attribution
def per_record_attribution(firings, *, tids=frozenset(), cids=frozenset()):
    """The oracle: the per-record rescan ``index_firings`` replaced — one
    walk over every firing of the batch for each record."""
    from repro.policy.model import CleanupFact

    attributed = []
    for rule, bindings, ops in firings:
        bound_tids, bound_cids = set(), set()
        for value in bindings.values():
            items = value if isinstance(value, (list, tuple, set)) else (value,)
            for item in items:
                if isinstance(item, TransferFact):
                    bound_tids.add(item.tid)
                elif isinstance(item, CleanupFact):
                    bound_cids.add(item.cid)
        if bound_tids & tids or bound_cids & cids:
            attributed.append({
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
            })
    return attributed


def test_big_batch_records_equal_per_record_attribution(monkeypatch):
    from repro.policy import provenance, service as service_module

    collectors = []

    class KeptCollector(provenance.FiringCollector):
        def __init__(self):
            super().__init__()
            collectors.append(self)

    monkeypatch.setattr(service_module, "FiringCollector", KeptCollector)
    service = make_service(max_streams=400)
    # 300 requests over 3 source hosts; every 10th repeats an earlier lfn,
    # so one de-duplication firing binds two transfers of the batch.
    batch = [
        spec(f"f{i if i % 10 else i // 2}", src=f"gsiftp://site{i % 3}/data")
        for i in range(300)
    ]
    advice = service.submit_transfers("wf", "big", batch)
    assert len(advice) == 300 and len(collectors) == 1
    firings = collectors[0].firings
    assert len(firings) > 600
    # Some firing binds two transfers, so it belongs to two records.
    assert any(
        sum(isinstance(v, TransferFact) for v in bindings.values()) > 1
        for _rule, bindings, _ops in firings
    )
    for item in advice:
        record = service.explain(item.tid)
        oracle = per_record_attribution(firings, tids=frozenset((item.tid,)))
        assert record["firings"] == oracle and oracle

    service.complete_transfers(
        done=[a.tid for a in advice if a.action == "transfer"]
    )
    files = [(a.lfn, a.dst_url) for a in advice if a.action == "transfer"]
    cleanups = service.submit_cleanups("wf", "sweep", files + files[:20])
    assert len(collectors) == 2 and len(cleanups) == len(files) + 20
    firings = collectors[1].firings
    for item in cleanups:
        record = cleanup_record(service, item.cid)
        oracle = per_record_attribution(firings, cids=frozenset((item.cid,)))
        assert record["firings"] == oracle and oracle
        assert record["digest"] == decision_digest(record)
