"""Policy-driven eviction through the service: victims, protections, parity."""

import json

import pytest

from repro.datacatalog.model import CatalogConfig
from repro.policy import salience

from tests.datacatalog.conftest import Clock, make_service, spec, stage
from tests.reference import reference_engine


def overflow_scenario(eviction_policy="lru"):
    """Stage three files for wf1, release wf1, then overflow with wf2.

    Returns (service, clock, completion-response of the overflowing
    transfer).  obelix budget is 2500 bytes; sizes are chosen so LRU and
    size policies pick different victims.
    """
    clock = Clock()
    service = make_service(
        clock=clock,
        config=CatalogConfig(
            site_capacity={"obelix": 2500.0}, eviction_policy=eviction_policy
        ),
    )
    stage(service, "wf1", [spec("a", nbytes=500.0)])
    clock.advance(10.0)
    stage(service, "wf1", [spec("b", nbytes=1500.0)])
    clock.advance(10.0)
    stage(service, "wf1", [spec("c", nbytes=800.0)])
    service.unregister_workflow("wf1")
    clock.advance(10.0)
    response = stage(service, "wf2", [spec("d", nbytes=700.0)])
    return service, clock, response


def test_lru_evicts_oldest_until_under_budget():
    service, _clock, response = overflow_scenario(eviction_policy="lru")
    # used = 3500 > 2500; a (oldest, 500) then b (1500) fall: 1500 left.
    assert [v["lfn"] for v in response["evicted"]] == ["a", "b"]
    census = service.catalog_census()
    assert [r["lfn"] for r in census["replicas"]] == ["c", "d"]
    assert census["sites"][0]["used_bytes"] == 1500.0


def test_size_evicts_largest_first():
    service, _clock, response = overflow_scenario(eviction_policy="size")
    # size policy: b (1500) alone brings 3500 -> 2000 <= 2500.
    assert [v["lfn"] for v in response["evicted"]] == ["b"]
    assert [r["lfn"] for r in service.catalog_census()["replicas"]] == [
        "a", "c", "d",
    ]


@pytest.mark.parametrize("capacity, eviction_policy, victims, used_after", [
    (2000.0, "lru", ["f0", "f1", "f2", "f3"], 1600.0),
    (2000.0, "size", ["f2", "f4", "f1"], 1600.0),
    (3500.0, "lru", ["f0", "f1", "f2"], 2300.0),
    (3500.0, "size", ["f2", "f4"], 2500.0),
    (6000.0, "lru", [], 5200.0),
    (6000.0, "size", [], 5200.0),
])
def test_victims_per_capacity_and_policy(capacity, eviction_policy, victims, used_after):
    """The LRU-vs-size table ``docs/catalog.md`` quotes: five released
    files (4,700 B, staged 10 s apart) overflowed by a 500 B one."""
    clock = Clock()
    service = make_service(
        clock=clock,
        config=CatalogConfig(
            site_capacity={"obelix": capacity}, eviction_policy=eviction_policy
        ),
    )
    for i, nbytes in enumerate([400.0, 900.0, 1600.0, 700.0, 1100.0]):
        stage(service, "warm", [spec(f"f{i}", nbytes=nbytes)])
        clock.advance(10.0)
    service.unregister_workflow("warm")
    response = stage(service, "hot", [spec("hot", nbytes=500.0)])
    assert [v["lfn"] for v in response["evicted"]] == victims
    assert service.catalog_census()["sites"][0]["used_bytes"] == used_after


def test_under_budget_completions_evict_nothing(service):
    response = stage(service, "wf1", [spec("a", nbytes=100.0)])
    assert response["evicted"] == []


def test_pinned_replicas_are_never_evicted():
    clock = Clock()
    service = make_service(clock=clock)
    stage(service, "wf1", [spec("a", nbytes=1000.0)])
    clock.advance(10.0)
    stage(service, "wf1", [spec("b", nbytes=1000.0)])
    service.unregister_workflow("wf1")
    service.catalog_pin("gsiftp://obelix/scratch/a")
    clock.advance(10.0)
    response = stage(service, "wf2", [spec("c", nbytes=1000.0)])
    # a is older but pinned; b is the only victim needed (3000 -> 2000).
    assert [v["lfn"] for v in response["evicted"]] == ["b"]
    assert {r["lfn"] for r in service.catalog_census()["replicas"]} == {"a", "c"}


def test_replicas_with_live_users_are_never_evicted():
    clock = Clock()
    service = make_service(clock=clock)
    stage(service, "wf1", [spec("a", nbytes=1000.0), spec("b", nbytes=1000.0)])
    clock.advance(10.0)
    # wf1 is still registered: its staged files have users and must
    # survive the sweep even though the site is over budget.
    response = stage(service, "wf1", [spec("c", nbytes=1000.0)])
    assert response["evicted"] == []
    assert len(service.catalog_census()["replicas"]) == 3


def test_inflight_transfer_source_is_protected():
    """A replica serving as the source of an in-progress transfer must
    not be evicted mid-copy — and becomes evictable once it completes."""
    clock = Clock()
    service = make_service(
        clock=clock,
        config=CatalogConfig(
            site_capacity={"obelix": 2500.0},
            link_costs={("obelix", "nike"): 1.0},
        ),
    )
    stage(service, "wf1", [spec("a", nbytes=1000.0)])
    service.unregister_workflow("wf1")
    clock.advance(10.0)

    # wf2 stages the same dataset to nike; replica selection rewrites the
    # source to the obelix replica (cost 1.0 beats the WAN default).
    advice = service.submit_transfers(
        "wf2", "j", [spec("a", dst_host="nike", nbytes=1000.0)]
    )
    assert advice[0].action == "transfer"
    assert advice[0].src_url == "gsiftp://obelix/scratch/a"

    # Overflow obelix while the copy is in flight: the source replica is
    # protected, so nothing can be evicted.
    service.set_site_capacity("obelix", 0.0)
    response = stage(service, "wf3", [spec("b", nbytes=100.0)])
    assert [v["lfn"] for v in response["evicted"]] == []

    # Completion releases the source; the next sweep may take it.
    clock.advance(10.0)
    response = service.complete_transfers(done=[advice[0].tid])
    assert "a" in [v["lfn"] for v in response["evicted"]]


def test_cleanup_retained_on_under_budget_site_approved_when_over():
    clock = Clock()
    service = make_service(clock=clock)
    stage(service, "wf1", [spec("a", nbytes=1000.0)])

    # Under budget: the catalog retains the replica (skip advice).
    advice = service.submit_cleanups(
        "wf1", "jc", [("a", "gsiftp://obelix/scratch/a")]
    )
    assert advice[0].action == "skip"
    assert "retain" in advice[0].reason

    # Over budget: retention no longer applies; ordinary approval wins.
    service.set_site_capacity("obelix", 500.0)
    service.unregister_workflow("wf1")
    advice = service.submit_cleanups(
        "wf2", "jc", [("a", "gsiftp://obelix/scratch/a")]
    )
    assert advice[0].action == "delete"
    service.complete_cleanups([advice[0].cid])
    assert service.catalog_census()["replicas"] == []


def test_eviction_emits_decision_provenance():
    service, _clock, response = overflow_scenario()
    evictions = [
        r for r in service.decision_records() if r.get("kind") == "eviction"
    ]
    assert [r["lfn"] for r in evictions] == ["a", "b"]
    record = evictions[0]
    assert record["advice"]["action"] == "evict"
    assert record["advice"]["policy"] == "lru"
    assert "over budget" in record["advice"]["reason"]
    # The firing trail cites the eviction-selection rule at its tier.
    rules = {f["rule"] for f in record["firings"]}
    assert any("eviction victims" in name.lower() for name in rules)
    assert all(
        f["salience"] in (salience.EVICTION_SELECT, salience.EVICTION_RETIRE)
        or f["salience"] >= 0
        for f in record["firings"]
    )


@pytest.mark.parametrize("policy", ["lru", "size"])
def test_census_and_victims_identical_across_engines(policy):
    def run():
        service, _clock, response = overflow_scenario(policy)
        return (
            json.dumps(service.catalog_census(), sort_keys=True),
            [v["lfn"] for v in response["evicted"]],
            [
                r["digest"]
                for r in service.decision_records()
                if r.get("kind") == "eviction"
            ],
        )

    with reference_engine():
        expected = run()
    assert run() == expected
    assert expected[1], "the scenario must evict something"
