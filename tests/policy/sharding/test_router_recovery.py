"""Shard crash, degraded advice, buffered replay, and health metrics."""

import pytest

from repro.des import Environment
from repro.des.faults import FaultInjector, FaultPlan, RouterPartition, ShardCrash
from repro.policy import PolicyConfig, PolicyRestServer, ShardedPolicyService
from repro.policy.sharding import ShardUnavailableError

from tests.policy.conftest import cleanup_record
from tests.policy.sharding.conftest import make_router, make_single


def _spec(lfn, site="siteA"):
    return {
        "lfn": lfn,
        "src_url": f"gsiftp://{site}/data/{lfn}",
        "dst_url": f"gsiftp://obelix/scratch/{lfn}",
        "nbytes": 1000.0,
    }


def _shard_of(router, site):
    from repro.policy.sharding import pair_key

    return router.ring.node_for(pair_key(site, "obelix"))


def _two_sites_on_distinct_shards(router):
    """Find two source sites the ring homes on different shards."""
    first = f"site{0}"
    home = _shard_of(router, first)
    for i in range(1, 64):
        site = f"site{i}"
        if _shard_of(router, site) != home:
            return first, site
    raise AssertionError("ring put 64 sites on one shard")


def test_ownership_forwarding_keeps_dedup_exact():
    """A second workflow requesting the same (lfn, dst) from a different
    source pair is forwarded to the home shard, so dedup sees it."""
    single = make_single()
    router = make_router(4)
    try:
        for service in (single, router):
            first = service.submit_transfers(
                "wfA", "j1", [_spec("shared", site="siteX")])
            service.complete_transfers(done=[first[0].tid])
            again = service.submit_transfers(
                "wfB", "j2", [_spec("shared", site="siteY")])
            # The staged copy is reused whichever pair asks.
            assert again[0].action == "skip", (type(service), again[0])
        key = ("shared", "gsiftp://obelix/scratch/shared")
        assert key in router._owner
    finally:
        router.close()


def test_crash_degrades_only_the_dead_shards_keyspace():
    router = make_router(4)
    try:
        site_dead, site_live = _two_sites_on_distinct_shards(router)
        victim = _shard_of(router, site_dead)
        router.crash_shard(victim)

        advice = router.submit_transfers(
            "wf", "j",
            [_spec("a", site=site_dead), _spec("b", site=site_live)])
        dead_a, live_b = advice
        assert dead_a.action == "transfer" and dead_a.group_id == 0
        assert f"shard {victim}" in dead_a.reason
        assert live_b.action == "transfer" and live_b.group_id >= 1
        assert "unavailable" not in live_b.reason

        # Queries against the dead keyspace answer "unknown", cleanups skip.
        assert router.staging_state("a", dead_a.url if hasattr(dead_a, "url")
                                    else _spec("a")["dst_url"]) == "unknown"
        assert router.transfer_state(dead_a.tid) == "in_progress"
        cleanup = router.submit_cleanups(
            "wf", "clean", [("a", _spec("a", site=site_dead)["dst_url"])])
        assert cleanup[0].action == "skip"
    finally:
        router.close()


def test_buffered_completions_replay_at_recovery(tmp_path):
    router = make_router(2, journal_root=tmp_path)
    try:
        site_dead, _ = _two_sites_on_distinct_shards(router)
        victim = _shard_of(router, site_dead)

        granted = router.submit_transfers(
            "wf", "j", [_spec("f1", site=site_dead)])
        tid = granted[0].tid
        router.crash_shard(victim)

        # Completion while the shard is down is owed to it, not lost.
        ack = router.complete_transfers(done=[tid])
        assert ack["acknowledged"] >= 1 or ack  # ack shape is service's own
        assert router.shards[victim].owed

        result = router.recover_shard(victim)
        assert result["replayed"] >= 1
        assert not router.shards[victim].owed
        assert not router.recovery_errors
        assert router.staging_state(
            "f1", _spec("f1", site=site_dead)["dst_url"]) == "staged"
        assert router.shards[victim].healthy()
    finally:
        router.close()


def test_journal_replay_restores_staged_state(tmp_path):
    router = make_router(2, journal_root=tmp_path)
    try:
        site_dead, _ = _two_sites_on_distinct_shards(router)
        victim = _shard_of(router, site_dead)
        granted = router.submit_transfers(
            "wf", "j", [_spec("f1", site=site_dead)])
        router.complete_transfers(done=[granted[0].tid])

        router.crash_shard(victim)
        assert not router.shards[victim].healthy()
        router.recover_shard(victim)

        # Staged fact came back from the shard's own WAL.
        assert router.staging_state(
            "f1", _spec("f1", site=site_dead)["dst_url"]) == "staged"
        # Dedup still works post-replay.
        again = router.submit_transfers(
            "wf2", "j2", [_spec("f1", site=site_dead)])
        assert again[0].action == "skip"
    finally:
        router.close()


def test_partition_heals_without_replay():
    router = make_router(2)
    try:
        site_dead, _ = _two_sites_on_distinct_shards(router)
        victim = _shard_of(router, site_dead)
        router.partition_shard(victim)
        advice = router.submit_transfers(
            "wf", "j", [_spec("p1", site=site_dead)])
        assert advice[0].group_id == 0 and "unavailable" in advice[0].reason

        router.partition_shard(victim, False)
        assert router.shards[victim].healthy()
        advice = router.submit_transfers(
            "wf", "j2", [_spec("p2", site=site_dead)])
        assert advice[0].group_id >= 1
    finally:
        router.close()


def test_recovery_leaves_an_open_partition_or_slowdown_open():
    """Recovery ends the crash only: each fault window ends its own switch."""
    router = make_router(2)
    try:
        router.partition_shard(0, True)
        router.slow_shard(1, 1.0)
        for index in (0, 1):
            router.crash_shard(index)
            router.recover_shard(index)
        assert [(h.partitioned, h.timeout_rate, h.healthy()) for h in router.shards] == [
            (True, 0.0, False), (False, 1.0, True),
        ]
    finally:
        router.close()


def test_a_shard_crash_inside_a_partition_window(tmp_path):
    """The crash replays at t=80; the partition still ends at t=140."""
    env = Environment()
    router = make_router(2, journal_root=tmp_path, clock=lambda: env.now)
    injector = FaultInjector(env, FaultPlan(
        partitions=(RouterPartition(at=40, duration=100, shard=0),),
        shard_crashes=(ShardCrash(at=60, shard=0, down_for=20),),
    ))
    injector.attach_router(router)
    injector.start()
    handle = router.shards[0]
    try:
        env.run(until=100)
        assert handle.service is not None and handle.recoveries == 1
        assert not handle.healthy()
        with pytest.raises(ShardUnavailableError, match="partitioned"):
            handle.call("memory_len")
        env.run(until=141)
        assert handle.healthy() and handle.call("memory_len") == 0
    finally:
        router.close()


def test_a_recovery_the_partition_still_cuts_off_keeps_its_backlog():
    router = make_router(2)
    try:
        site, _ = _two_sites_on_distinct_shards(router)
        victim = _shard_of(router, site)
        granted = router.submit_transfers("wf", "j", [_spec("p1", site=site)])
        router.partition_shard(victim)
        router.complete_transfers(done=[granted[0].tid])
        router.crash_shard(victim)
        assert router.recover_shard(victim) == {"shard": victim, "replayed": 0, "pending": 1}
        assert router.recovery_errors == []
        router.partition_shard(victim, False)
        router.crash_shard(victim)
        assert router.recover_shard(victim) == {"shard": victim, "replayed": 1, "pending": 0}
        assert router.recovery_errors == []
    finally:
        router.close()


def _one_file(service, site, cut_off=lambda: None, heal=lambda: None):
    """wf1 stages one file; its completion and unregister arrive between
    ``cut_off`` and ``heal``.  Returns what the service then answers: the
    transfer's state, the file's state and a second workflow's advice."""
    spec = _spec("f", site=site)
    tid = service.submit_transfers("wf1", "j1", [spec])[0].tid
    cut_off()
    service.complete_transfers(done=[tid])
    service.unregister_workflow("wf1", retain_staged=True)
    heal()
    return (
        service.transfer_state(tid),
        service.staging_state("f", spec["dst_url"]),
        service.submit_transfers("wf2", "j2", [spec])[0].action,
    )


def test_reports_owed_during_a_partition_land_when_it_heals():
    """No crash, no replay: the heal alone delivers what the shard missed."""
    assert _one_file(make_single(), "site0") == ("done", "staged", "skip")
    router = make_router(2)
    try:
        site, _ = _two_sites_on_distinct_shards(router)
        victim = _shard_of(router, site)
        assert _one_file(
            router, site,
            cut_off=lambda: router.partition_shard(victim),
            heal=lambda: router.partition_shard(victim, False),
        ) == ("done", "staged", "skip")
        assert not router.shards[victim].owed and router.recovery_errors == []
    finally:
        router.close()


def test_reports_owed_during_a_slowdown_land_when_it_ends():
    """The slowdown opens the breaker; its probe delivers the owed reports."""
    now = [0.0]
    router = make_router(2, clock=lambda: now[0])
    try:
        site, _ = _two_sites_on_distinct_shards(router)
        victim = _shard_of(router, site)

        def heal():
            router.slow_shard(victim, 0.0)
            now[0] = 60.0  # the breaker's reset timeout

        assert _one_file(
            router, site, cut_off=lambda: router.slow_shard(victim, 1.0), heal=heal,
        ) == ("done", "staged", "skip")
        assert not router.shards[victim].owed and router.recovery_errors == []
    finally:
        router.close()


def test_a_degraded_grant_completed_after_recovery_is_reconciled():
    router = make_router(2)
    try:
        site, _ = _two_sites_on_distinct_shards(router)
        victim = _shard_of(router, site)
        spec = _spec("f", site=site)
        router.crash_shard(victim)
        granted = router.submit_transfers("wf1", "j1", [spec])[0]
        assert granted.group_id == 0
        router.recover_shard(victim)
        router.complete_transfers(done=[granted.tid])
        assert router.staging_state("f", spec["dst_url"]) == "staged"
        assert router.submit_transfers("wf2", "j2", [spec])[0].action == "skip"
    finally:
        router.close()


def test_a_degraded_grants_file_joins_the_ownership_directory():
    """Once its reconcile is owed, the file is homed on the grant's shard:
    the same file from a second source pair is forwarded there, not
    re-staged on the pair's own shard."""
    router = make_router(2)
    try:
        site_dead, site_live = _two_sites_on_distinct_shards(router)
        victim = _shard_of(router, site_dead)
        router.crash_shard(victim)
        granted = router.submit_transfers("wf1", "j1", [_spec("f", site=site_dead)])[0]
        router.complete_transfers(done=[granted.tid])
        assert router._owner[("f", _spec("f")["dst_url"])] == victim
        router.recover_shard(victim)
        again = router.submit_transfers("wf2", "j2", [_spec("f", site=site_live)])
        assert again[0].action == "skip"
    finally:
        router.close()


def test_timeout_storm_trips_the_breaker():
    router = make_router(2, breaker_threshold=3)
    try:
        site_dead, _ = _two_sites_on_distinct_shards(router)
        victim = _shard_of(router, site_dead)
        router.slow_shard(victim, 1.0)
        for i in range(4):
            router.submit_transfers(
                "wf", f"j{i}", [_spec(f"t{i}", site=site_dead)])
        handle = router.shards[victim]
        assert handle.breaker.state == "open"
        assert handle.breaker.transitions.get("closed->open", 0) >= 1

        # Breaker-open means unavailable even after the slowdown clears.
        router.slow_shard(victim, 0.0)
        with pytest.raises(ShardUnavailableError):
            handle.call("stats")

        # Recovery closes the breaker and restores exact advice.
        router.recover_shard(victim)
        advice = router.submit_transfers(
            "wf", "jz", [_spec("tz", site=site_dead)])
        assert advice[0].group_id >= 1
    finally:
        router.close()


def test_breaker_and_shard_health_exported_in_metrics():
    router = make_router(2)
    try:
        router.submit_transfers("wf", "j", [_spec("m1")])
        router.crash_shard(1)
        router.submit_transfers("wf", "j2", [_spec("m2")])
        text = router.metrics_text()
    finally:
        router.close()
    assert 'repro_policy_client_breaker_state{shard="0"}' in text
    assert 'repro_policy_client_breaker_state{shard="1"}' in text
    assert "repro_policy_client_breaker_transitions_total" in text
    assert 'repro_policy_shard_up{shard="1"} 0' in text
    assert 'repro_policy_shard_up{shard="0"} 1' in text
    # Per-shard service families carry the injected shard label.
    assert 'shard="0"' in text and 'shard="1"' in text


def test_rest_metrics_endpoint_includes_shard_health():
    """Satellite: GET /policy/metrics over a sharded fleet reports
    breaker state and shard health."""
    import urllib.request

    router = ShardedPolicyService(
        PolicyConfig(policy="greedy", default_streams=4, max_streams=12),
        num_shards=2,
    )
    server = PolicyRestServer(router)
    try:
        server.start()
        router.crash_shard(0)
        text = urllib.request.urlopen(
            server.url + "/policy/metrics").read().decode()
        assert "repro_policy_client_breaker_state" in text
        assert 'repro_policy_shard_up{shard="0"} 0' in text
        status = urllib.request.urlopen(server.url + "/policy/status")
        import json

        doc = json.loads(status.read())
        assert any(not h["healthy"] for h in doc["shard_health"])
    finally:
        server.stop()
        router.close()


def test_snapshot_reports_fleet_state():
    router = make_router(2)
    try:
        router.submit_transfers("wf", "j", [_spec("s1")])
        snap = router.snapshot()
    finally:
        router.close()
    assert snap["shards"] == 2
    assert len(snap["shard_health"]) == 2
    assert all(h["healthy"] for h in snap["shard_health"])
    assert snap["memory"]


def test_degraded_advice_gets_synthetic_explain_record():
    """The home shard never saw a degraded grant, so the router itself
    must witness it: ``explain`` returns a policy-free record naming the
    dead shard, and the aggregate stream includes it."""
    router = make_router(4)
    try:
        site_dead, site_live = _two_sites_on_distinct_shards(router)
        victim = _shard_of(router, site_dead)
        router.crash_shard(victim)

        dead_a, live_b = router.submit_transfers(
            "wf", "j",
            [_spec("a", site=site_dead), _spec("b", site=site_live)])

        synthetic = router.explain(dead_a.tid)
        assert synthetic["policy_free"] is True
        assert synthetic["firings"] == [] and synthetic["ledger"] == {}
        assert synthetic["meta"]["shard"] == victim
        assert f"shard {victim}" in synthetic["advice"]["reason"]

        real = router.explain(live_b.tid)
        assert real["policy_free"] is False and real["firings"]

        # Cleanups the router answered conservatively are witnessed too.
        cleanup = router.submit_cleanups(
            "wf", "clean", [("a", _spec("a", site=site_dead)["dst_url"])])
        record = cleanup_record(router, cleanup[0].cid)
        assert record["policy_free"] is True
        assert record["advice"]["action"] == "skip"

        records = router.decision_records()
        assert any(r.get("policy_free") for r in records)
        assert any(not r.get("policy_free") for r in records)
    finally:
        router.close()


def test_explain_survives_shard_crash_and_recovery(tmp_path):
    """A journaled shard reproduces its decision records byte-identically
    after crash + recovery, and the router serves them transparently."""
    router = make_router(2, journal_root=tmp_path)
    try:
        granted = router.submit_transfers(
            "wf", "j", [_spec(f"f{i}", site=f"site{i}") for i in range(6)])
        before = {a.tid: router.explain(a.tid) for a in granted}
        assert all(before.values())

        for victim in range(2):
            router.crash_shard(victim)
            router.recover_shard(victim)
        after = {a.tid: router.explain(a.tid) for a in granted}
        assert after == before
    finally:
        router.close()
