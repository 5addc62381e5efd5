"""A service call costs O(batch), not O(resident facts).

Count-based and deterministic: the same 2-file staging cycle
(``submit_transfers`` -> ``complete_transfers`` -> ``submit_cleanups``
-> ``complete_cleanups``) is run against a service holding 200 resident
staged files and against one holding 20,000.  Guard evaluations and the
facts the working memory hands out must be *equal*, the memory must not
be iterated, and the staged-file extent must not be listed.
"""

import pytest

import repro.policy.service as service_module
import repro.rules.network as network_module
import repro.rules.patterns as patterns_module
from repro.policy import PolicyConfig, PolicyService
from repro.policy.model import (
    ClusterAllocationFact,
    HostPairFact,
    StagedFileFact,
    TransferFact,
)
from repro.policy.provenance import ledger_snapshot
from repro.rules import WorkingMemory

from tests.policy.conftest import cleanup_record, spec

DST = "gsiftp://obelix/scratch"


class CountingMemory(WorkingMemory):
    """Counts the facts handed to callers and the scans that list them."""

    def __init__(self):
        super().__init__()
        self.reset_counts()

    def reset_counts(self):
        self.visited = 0
        self.iterations = 0
        self.extents_listed = []

    def facts_of(self, fact_type):
        facts = super().facts_of(fact_type)
        self.extents_listed.append(fact_type)
        self.visited += len(facts)
        return facts

    def lookup(self, fact_type, **keys):
        if not keys:
            return self.facts_of(fact_type)
        facts = super().lookup(fact_type, **keys)
        self.visited += len(facts)
        return facts

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


@pytest.fixture
def guard_checks(monkeypatch):
    """Number of guard evaluations, whichever module performs them."""
    counts = [0]
    check = patterns_module._check

    def counting_check(guard, fact, bindings):
        counts[0] += 1
        return check(guard, fact, bindings)

    monkeypatch.setattr(patterns_module, "_check", counting_check)
    monkeypatch.setattr(network_module, "_check", counting_check)
    return counts


def cycle(service, tag):
    """One staging job of two files, start to deleted."""
    advice = service.submit_transfers(
        "wf", f"job-{tag}", [spec(f"{tag}-a"), spec(f"{tag}-b")]
    )
    assert [a.action for a in advice] == ["transfer", "transfer"]
    service.complete_transfers(done=[a.tid for a in advice])
    files = [(a.lfn, a.dst_url) for a in advice]
    cleanups = service.submit_cleanups("wf", f"clean-{tag}", files)
    assert [c.action for c in cleanups] == ["delete", "delete"]
    assert service.complete_cleanups([c.cid for c in cleanups]) == {"acknowledged": 2}


def measure(monkeypatch, guard_checks, resident):
    monkeypatch.setattr(service_module, "WorkingMemory", CountingMemory)
    service = PolicyService(
        PolicyConfig(policy="greedy", default_streams=4, max_streams=50)
    )
    memory = service.memory
    assert isinstance(memory, CountingMemory)
    service.reconcile_staged(
        "resident", [(f"res-{i}", f"{DST}/res-{i}") for i in range(resident)]
    )
    cycle(service, "warm")  # builds the indexes and the network
    assert len(memory) >= resident
    memory.reset_counts()
    guard_checks[0] = 0
    cycle(service, "timed")
    return {
        "guard_checks": guard_checks[0],
        "facts_visited": memory.visited,
        "iterations": memory.iterations,
        "extents_listed": memory.extents_listed,
        "explained": [r["digest"] for r in service.decision_records()[-4:]],
    }


def test_staging_cycle_cost_is_independent_of_resident_files(monkeypatch, guard_checks):
    small = measure(monkeypatch, guard_checks, resident=200)
    large = measure(monkeypatch, guard_checks, resident=20_000)
    assert small["guard_checks"] == large["guard_checks"] > 0
    assert small["facts_visited"] == large["facts_visited"] > 0
    assert small["iterations"] == large["iterations"] == 0
    assert StagedFileFact not in small["extents_listed"] + large["extents_listed"]
    # Same decisions either way: the resident files are bystanders.
    assert small["explained"] == large["explained"]


# ------------------------------------------------------------------ oracle
def full_scan_ledger_snapshot(memory) -> dict:
    """The census ``ledger_snapshot`` used to take: every fact, twice per
    submit.  Kept here as the oracle for the keyed probe."""
    pairs = {}
    for f in memory.facts_of(HostPairFact):
        pairs[f"{f.src_host}->{f.dst_host}"] = {
            "allocated": f.allocated,
            "threshold": f.threshold,
        }
    clusters = {}
    for f in memory.facts_of(ClusterAllocationFact):
        clusters[f"{f.src_host}->{f.dst_host}/{f.cluster}"] = {
            "allocated": f.allocated,
        }
    tenants = {}
    staged = {}
    for f in memory:
        cls = type(f).__name__
        if cls == "TenantFact":
            tenants[f.tenant] = {
                "inflight_streams": f.inflight_streams,
                "bytes_staged": f.bytes_staged,
            }
        elif isinstance(f, StagedFileFact):
            staged[f"{f.lfn}@{f.dst_url}"] = {
                "status": f.status,
                "users": sorted(f.users),
            }
    return {"pairs": pairs, "clusters": clusters, "tenants": tenants,
            "staged": staged}


@pytest.mark.parametrize("policy", ("greedy", "balanced"))
def test_ledger_probe_equals_the_full_scan_on_the_cited_keys(policy):
    service = PolicyService(
        PolicyConfig(policy=policy, default_streams=4, max_streams=6, cluster_count=2)
    )
    service.register_tenant("astro", max_streams=8)
    service.register_tenant("bio")
    service.bind_workflow("wf", "astro")
    service.reconcile_staged(
        "other", [(f"res-{i}", f"{DST}/res-{i}") for i in range(50)]
    )
    advice = service.submit_transfers(
        "wf", "j1",
        [spec("a"), spec("b", src="gsiftp://site-b/data"), spec("res-3"), spec("a")],
    )
    service.complete_transfers(
        done=[a.tid for a in advice if a.action == "transfer"][:1]
    )
    memory = service.memory
    oracle = full_scan_ledger_snapshot(memory)
    assert oracle["pairs"] and oracle["tenants"] and len(oracle["staged"]) > 50

    probe = ledger_snapshot(memory)
    assert probe == {k: oracle[k] for k in ("pairs", "clusters", "tenants")}

    files = [("a", f"{DST}/a"), ("res-3", f"{DST}/res-3"), ("ghost", f"{DST}/ghost")]
    probe = ledger_snapshot(memory, files)
    cited = [f"{lfn}@{url}" for lfn, url in files]
    assert probe == {
        "staged": {k: oracle["staged"][k] for k in cited if k in oracle["staged"]}
    }
    assert set(probe["staged"]) == {cited[0], cited[1]}

    # And the records built from the probes cite exactly those values.
    cleanups = service.submit_cleanups("wf", "clean", files)
    for item in cleanups:
        key = f"{item.lfn}@{item.url}"
        ledger = cleanup_record(service, item.cid)["ledger"]
        if key in oracle["staged"]:
            assert ledger["staged"]["key"] == key
            assert ledger["staged"]["before"] == oracle["staged"][key]
        else:
            assert ledger == {}


# ------------------------------------------------------------------ retract
def test_retract_compares_no_resident_fact(monkeypatch):
    """Retracting one fact is a keyed delete from each type extent — in
    particular from the ``Fact`` base extent, which holds every live
    fact — not an equality scan over it."""
    compared = [0]
    for cls in (StagedFileFact, TransferFact):
        eq = cls.__eq__

        def counting_eq(self, other, _eq=eq):
            compared[0] += 1
            return _eq(self, other)

        monkeypatch.setattr(cls, "__eq__", counting_eq)

    def comparisons(resident):
        memory = WorkingMemory()
        for i in range(resident):
            memory.insert(StagedFileFact(
                lfn=f"res-{i}", dst_url=f"{DST}/res-{i}", owner_tid=0, workflow="wf"
            ))
        transfer = memory.insert(TransferFact(
            tid=1, workflow="wf", job="j", lfn="a", src_url="gsiftp://fg-vm/data/a",
            dst_url=f"{DST}/a", nbytes=1.0,
        ))
        compared[0] = 0
        memory.retract(transfer)
        assert not memory.contains(transfer)
        assert len(memory.facts_of(StagedFileFact)) == resident
        assert memory.facts_of(TransferFact) == []
        return compared[0]

    assert comparisons(200) == comparisons(20_000) == 0


# ------------------------------------------------------------------ network
def test_join_network_syncs_a_gated_rule_once_per_tier_not_per_firing(monkeypatch):
    """An ``Absent``-gated delta rule that every firing of a higher tier
    dirties is re-enumerated when its tier is reached, not per firing."""
    service = PolicyService(
        PolicyConfig(policy="greedy", default_streams=4, max_streams=50)
    )
    batch = 300
    advice = service.submit_transfers(
        "wf", "stage", [spec(f"f-{i}") for i in range(batch)]
    )
    service.complete_transfers(done=[a.tid for a in advice])
    files = [(a.lfn, a.dst_url) for a in advice]

    rebuilds = [0]
    rebuild = network_module.JoinNetwork._rebuild_delta

    def counting_rebuild(self, state):
        rebuilds[0] += 1
        return rebuild(self, state)

    monkeypatch.setattr(network_module.JoinNetwork, "_rebuild_delta", counting_rebuild)
    cleanups = service.submit_cleanups("wf", "clean", files)
    assert [c.action for c in cleanups] == ["delete"] * batch
    assert rebuilds[0] <= 5


# ------------------------------------------------------------------ routing
def _resident_service(resident):
    """A default-engine service, warmed, holding ``resident`` staged files."""
    service = PolicyService(
        PolicyConfig(policy="greedy", default_streams=4, max_streams=4000)
    )
    service.reconcile_staged(
        "resident", [(f"res-{i}", f"{DST}/res-{i}") for i in range(resident)]
    )
    cycle(service, "warm")
    return service


def test_one_file_cleanup_visits_few_rules_whatever_the_resident_set(monkeypatch):
    """Alpha routing: a 1-file ``submit_cleanups`` syncs only the rules
    the cleanup's own status changes concern (24 without routing)."""
    visits = [0]
    sync_rule = network_module.JoinNetwork._sync_rule

    def counting_sync(self, state, dirty):
        visits[0] += 1
        return sync_rule(self, state, dirty)

    monkeypatch.setattr(network_module.JoinNetwork, "_sync_rule", counting_sync)

    def visited(resident):
        service = _resident_service(resident)
        visits[0] = 0
        advice = service.submit_cleanups("resident", "clean", [("res-7", f"{DST}/res-7")])
        assert [c.action for c in advice] == ["delete"]
        return visits[0]

    small, large = visited(200), visited(20_000)
    assert 0 < small == large <= 12


def test_big_batch_submit_does_not_rejoin_the_batch_per_counter_update(monkeypatch):
    """300 transfers against 10,000 resident files: every grant updates a
    HostPairFact, and the default engine must not re-join the whole batch
    from position 0 each time (883,975 ``expand_over`` calls when it did)."""
    service = _resident_service(10_000)
    calls = [0]
    expand_over = patterns_module.Pattern.expand_over

    def counting_expand_over(self, facts, bindings):
        calls[0] += 1
        return expand_over(self, facts, bindings)

    monkeypatch.setattr(patterns_module.Pattern, "expand_over", counting_expand_over)
    advice = service.submit_transfers(
        "wf", "stage",
        [spec(f"big-{i}", src=f"gsiftp://site-{i % 8}/data") for i in range(300)],
    )
    assert [a.action for a in advice] == ["transfer"] * 300
    assert calls[0] < 10_000
