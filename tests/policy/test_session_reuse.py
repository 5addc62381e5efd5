"""One long-lived rule session per service == a new session per call.

``PolicyService`` keeps a single rule session whose join network
follows the working memory's change log across calls.  The
reference here, :class:`PerCallSessionService`, still builds a new
session for every evaluation, which re-matches every rule against the
resident memory from scratch.  Seeded random call sequences are driven
through both; advice, decision records, the memory census and the
journal bytes must be identical.
"""

import random
import shutil

import pytest

from repro.datacatalog.model import CatalogConfig
from repro.policy import PolicyConfig, PolicyJournal, PolicyService
from repro.policy.sharding import ShardedPolicyService

from tests.conftest import both_engines
from tests.policy.sharding.conftest import multi_site_drive

SITES = ("fg-vm", "site-b", "site-c")
DST = "gsiftp://obelix/scratch"


class PerCallSessionService(PolicyService):
    """The pre-reuse behaviour: every evaluation gets a new session."""

    def _session(self):
        self._rule_session = self.session_class(
            self._rules, memory=self.memory, globals=self.globals,
            profiler=self.hooks.profiler,
        )
        return self._rule_session


def make_config(policy, catalog, leases=True):
    return PolicyConfig(
        policy=policy,
        default_streams=4,
        max_streams=10,
        cluster_count=2,
        access_control=True,
        lease_seconds=40.0 if leases else None,
        # Two ~1 kB files fit a site; the third forces an eviction sweep.
        catalog=CatalogConfig(default_capacity=2500.0) if catalog else None,
    )


class Driver:
    """Applies one seeded stream of calls to a service, logging results.

    The stream depends only on the seed and on the service's own answers
    (ids to complete come from earlier advice), so two services that
    answer identically are driven identically.
    """

    def __init__(self, service, seed, now):
        self.service = service
        self.rng = random.Random(seed)
        self.now = now
        self.log = []
        self.in_flight = []
        self.staged = []
        self.deleting = []
        self.workflows = [f"wf{i}" for i in range(3)]

    def _spec(self):
        rng = self.rng
        lfn = f"f{rng.randrange(12)}"
        spec = {
            "lfn": lfn,
            "src_url": f"gsiftp://{rng.choice(SITES)}/data/{lfn}",
            "dst_url": f"{DST}/{lfn}",
            "nbytes": 900.0 + rng.randrange(200),
        }
        if rng.random() < 0.3:
            spec["priority"] = rng.randrange(3)
        return spec

    def step(self):
        service, rng = self.service, self.rng
        self.now[0] += rng.choice((0.0, 1.0, 5.0, 30.0))
        workflow = rng.choice(self.workflows)
        op = rng.choice((
            "submit", "submit", "submit", "complete", "complete", "cleanup",
            "cleaned", "reconcile", "unregister", "reap", "query", "broken",
            "admin",
        ))
        if op == "submit":
            specs = [self._spec() for _ in range(rng.randrange(1, 5))]
            advice = service.submit_transfers(workflow, f"j{rng.randrange(4)}", specs)
            self.log.append([a.to_dict() for a in advice])
            self.in_flight += [a.tid for a in advice if a.action == "transfer"]
            self.staged += [(a.lfn, a.dst_url) for a in advice if a.action != "deny"]
        elif op == "complete":
            rng.shuffle(self.in_flight)
            cut = rng.randrange(len(self.in_flight) + 1)
            batch, self.in_flight = self.in_flight[:cut], self.in_flight[cut:]
            failed = batch[:1] if rng.random() < 0.3 else []
            self.log.append(
                service.complete_transfers(done=batch[len(failed):], failed=failed)
            )
        elif op == "cleanup":
            files = rng.sample(self.staged, min(len(self.staged), rng.randrange(1, 4)))
            files.append((f"never-{rng.randrange(3)}", f"{DST}/never"))
            advice = service.submit_cleanups(workflow, "clean", files)
            self.log.append([a.to_dict() for a in advice])
            self.deleting += [a.cid for a in advice if a.action == "delete"]
        elif op == "cleaned":
            ids, self.deleting = self.deleting + [10_000], []
            self.log.append(service.complete_cleanups(ids))
        elif op == "reconcile":
            files = [
                (f"r{rng.randrange(6)}", f"{DST}/r{rng.randrange(6)}", 100.0)
                for _ in range(rng.randrange(1, 4))
            ]
            self.log.append(service.reconcile_staged(workflow, files))
            self.staged += [f[:2] for f in files]
        elif op == "unregister":
            service.unregister_workflow(workflow, retain_staged=rng.random() < 0.5)
        elif op == "reap":
            self.log.append(service.reap_expired())
        elif op == "query":
            self.log.append(service.transfer_state(rng.randrange(1, 40)))
            self.log.append(service.staging_state("f1", f"{DST}/f1"))
        elif op == "broken":
            # The second spec has no src_url: the call raises after both
            # tids were burned, before any fact entered memory.
            with pytest.raises(KeyError):
                service.submit_transfers(
                    workflow, "bad", [self._spec(), {"lfn": "x", "dst_url": f"{DST}/x"}]
                )
        else:
            if rng.random() < 0.5:
                service.deny_host(rng.choice(SITES), reason="maintenance")
            else:
                self.log.append(service.allow_host(rng.choice(SITES)))

    def run(self, steps):
        for _ in range(steps):
            self.step()
        return self


def witness(driver, journal_dir=None):
    """Everything two equivalent services must agree on, byte for byte."""
    service = driver.service
    doc = {
        "log": driver.log,
        "decisions": service.decision_records(),
        "memory": service.memory.snapshot(),
        "counters": service.counters(),
    }
    if service.catalog is not None:
        doc["catalog"] = service.catalog_census()
    if journal_dir is not None:
        doc["wal"] = (journal_dir / "journal.jsonl").read_bytes()
        doc["snapshot"] = (journal_dir / "snapshot.json").read_bytes()
    return doc


def paired(tmp_path, policy, catalog, snapshot_interval=25):
    """A reusing service and its per-call reference, each journaled."""
    out = []
    for cls in (PolicyService, PerCallSessionService):
        now = [0.0]
        path = tmp_path / cls.__name__
        journal = PolicyJournal(path, snapshot_interval=snapshot_interval)
        service = cls(
            make_config(policy, catalog), clock=lambda now=now: now[0],
            journal=journal,
        )
        out.append((service, now, path))
    return out


@both_engines
@pytest.mark.parametrize("catalog", (False, True), ids=("nocatalog", "catalog"))
@pytest.mark.parametrize("seed", range(4))
def test_random_call_sequences_match_per_call_sessions(tmp_path, engine, catalog, seed):
    policy = ("greedy", "balanced", "fifo", "greedy")[seed]
    witnesses = []
    for service, now, path in paired(tmp_path, policy, catalog):
        driver = Driver(service, seed, now).run(120)
        service.journal.close()
        witnesses.append(witness(driver, path))
    reused, reference = witnesses
    assert reused["log"] == reference["log"]
    assert [r["digest"] for r in reused["decisions"]] == [
        r["digest"] for r in reference["decisions"]
    ]
    assert reused == reference
    # The sequences are not vacuous: rules fired and were explained.
    assert len(reused["decisions"]) > 50


def test_overrunning_the_change_log_between_calls_forces_a_rebuild(
    tmp_path, monkeypatch
):
    # Every call now mutates more than the log remembers, so the session
    # falls behind between (and inside) calls and must rebuild, not
    # apply a delta with a hole in it.
    monkeypatch.setattr("repro.rules.facts._CHANGELOG_CAP", 6)
    witnesses = []
    for service, now, path in paired(tmp_path, "greedy", catalog=True):
        assert service.memory._log.maxlen == 6
        driver = Driver(service, 7, now).run(40)
        service.reconcile_staged(
            "bulk", [(f"b{i}", f"{DST}/b{i}") for i in range(20)]
        )
        driver.run(40)
        service.journal.close()
        witnesses.append(witness(driver, path))
    assert witnesses[0] == witnesses[1]


def test_more_mutations_than_the_real_cap_between_two_calls():
    from repro.rules.facts import _CHANGELOG_CAP

    logs = []
    for cls in (PolicyService, PerCallSessionService):
        now = [0.0]
        service = cls(make_config("greedy", False, leases=False), clock=lambda: 0.0)
        driver = Driver(service, 3, now).run(30)
        before = service.memory.clock
        service.reconcile_staged(
            "bulk",
            [(f"b{i}", f"{DST}/b{i}") for i in range(_CHANGELOG_CAP // 2 + 1)],
        )
        assert service.memory.clock - before > _CHANGELOG_CAP
        driver.run(30)
        logs.append(witness(driver))
    assert logs[0] == logs[1]


@both_engines
def test_recovered_service_keeps_matching_under_live_calls(tmp_path, engine):
    config = make_config("greedy", catalog=True)
    now = [0.0]
    origin = tmp_path / "origin"
    crashed = PolicyService(
        config, clock=lambda: now[0],
        journal=PolicyJournal(origin, snapshot_interval=30),
    )
    before = Driver(crashed, 11, now).run(80)
    crashed.journal.close()

    witnesses = []
    for cls in (PolicyService, PerCallSessionService):
        path = tmp_path / f"recovered-{cls.__name__}"
        shutil.copytree(origin, path)
        clock = [now[0]]
        service = cls.recover(
            path, config=config, clock=lambda clock=clock: clock[0],
            snapshot_interval=30,
        )
        # A failed submit leaves no fact behind, so what recovery reads
        # back from the journal is all the crashed service held.
        assert service.memory.snapshot() == crashed.memory.snapshot()
        driver = Driver(service, 12, clock)
        driver.in_flight = list(before.in_flight)
        driver.staged = list(before.staged)
        driver.deleting = list(before.deleting)
        driver.run(80)
        service.journal.close()
        witnesses.append(witness(driver, path))
    assert witnesses[0] == witnesses[1]


def test_two_shard_router_matches_per_call_sessions(monkeypatch):
    def run():
        router = ShardedPolicyService(
            PolicyConfig(policy="greedy", default_streams=4, max_streams=12),
            num_shards=2,
        )
        return multi_site_drive(router), router.decision_records()

    reused = run()
    monkeypatch.setattr(
        "repro.policy.sharding.shard.PolicyService", PerCallSessionService
    )
    reference = run()
    assert reused == reference


def test_failed_submit_leaves_no_listener_and_no_stale_firings():
    service = PolicyService(PolicyConfig(policy="greedy", max_streams=10))
    good = {
        "lfn": "a", "src_url": "gsiftp://fg-vm/data/a", "dst_url": f"{DST}/a",
        "nbytes": 1.0,
    }
    advice = service.submit_transfers("wf", "j1", [good])
    session = service._rule_session
    assert session.firing_listener is None

    # The second spec is malformed: the call raises after its collector
    # was installed, and leaves neither it nor the first spec's fact.
    resident = len(service.memory)
    with pytest.raises(KeyError):
        service.submit_transfers("wf", "j2", [dict(good, lfn="b"), {"lfn": "c"}])
    assert session.firing_listener is None
    assert len(service.memory) == resident
    records = len(service.decision_records())

    # complete_transfers fires rules (release, staged-file promotion)
    # with no collector of its own: nothing may be recorded or retained.
    service.complete_transfers(done=[advice[0].tid])
    assert session.firing_listener is None
    assert len(service.decision_records()) == records

    # The next submit's records mention only the batch being decided.
    later = service.submit_transfers("wf", "j3", [dict(good, lfn="d", dst_url=f"{DST}/d")])
    record = service.explain(later[0].tid)
    mentioned = {
        op["fact"] for firing in record["firings"] for op in firing["ops"]
        if op["fact"].startswith("transfer:")
    }
    assert mentioned == {f"transfer:{later[0].tid}"}
    assert service._rule_session is session


def _disk_full(*_args, **_kwargs):
    raise OSError("disk full")


# op -> (what it raises, the failing call given the ids of an in-progress
# transfer and cleanup, whether the failure is the journal's commit)
FAILING_CALLS = {
    "submit_transfers": (
        KeyError, lambda s, tid, cid: s.submit_transfers("wf", "j2", [{"lfn": "c"}]), False),
    "submit_cleanups": (
        ValueError, lambda s, tid, cid: s.submit_cleanups("wf", "c2", [("a",)]), False),
    "reconcile_staged": (
        ValueError, lambda s, tid, cid: s.reconcile_staged("wf", [("a",)]), False),
    "complete_transfers": (
        OSError, lambda s, tid, cid: s.complete_transfers(done=[tid]), True),
    "complete_cleanups": (
        OSError, lambda s, tid, cid: s.complete_cleanups([cid]), True),
}


@pytest.mark.parametrize("op", sorted(FAILING_CALLS))
def test_a_failed_call_is_visible_and_leaves_no_residue(op, tmp_path, monkeypatch):
    """Every traced entry point that raises closes exactly one span with
    the error's type and is timed like any other call; the session keeps
    no listener and the journal neither bytes nor an open transaction."""
    from repro.obs import Hooks, Tracer

    tracer = Tracer()
    service = PolicyService(
        PolicyConfig(policy="greedy", max_streams=10),
        journal=PolicyJournal(tmp_path), hooks=Hooks(tracer=tracer),
    )
    first, second = service.submit_transfers("wf", "j1", [
        {"lfn": n, "src_url": f"gsiftp://fg-vm/data/{n}", "dst_url": f"{DST}/{n}",
         "nbytes": 1.0}
        for n in ("a", "b")
    ])
    service.complete_transfers(done=[first.tid])
    (cleanup,) = service.submit_cleanups("wf", "c1", [("a", f"{DST}/a")])
    assert cleanup.action == "delete"

    error, call, commit_fails = FAILING_CALLS[op]
    calls = service.metrics.get("repro_policy_calls_total")
    seconds = service.metrics.get("repro_policy_call_seconds").labels(call=op)
    counted, timed = calls.value(call=op), seconds.count
    spans = len(tracer.spans())
    journal_bytes = service.journal.journal_path.read_bytes()
    if commit_fails:
        monkeypatch.setattr(service.journal, "commit", _disk_full)
    with pytest.raises(error):
        call(service, second.tid, cleanup.cid)

    (span,) = tracer.spans()[spans:]
    assert span["name"] == f"policy.{op}"
    assert span["args"]["error"] == error.__name__
    assert calls.value(call=op) == counted + 1
    assert seconds.count == timed + 1
    assert service._rule_session.firing_listener is None
    assert not service.journal.has_pending
    assert service.journal.journal_path.read_bytes() == journal_bytes


def session_census(service):
    """Sizes of everything the long-lived session holds on to."""
    session = service._rule_session
    sizes = {"fired": len(session._fired), "facts": len(service.memory)}
    network = session.network
    states = list(network._states.values())
    stores = [store for state in states for store in state.stores if store is not None]
    sizes["cands"] = network.candidate_count()
    sizes["by_fid"] = sum(len(state.by_fid) for state in states)
    sizes["probes"] = sum(len(state.probes) for state in states)
    sizes["heaps"] = sum(len(heap) for heap in network._heaps)
    sizes["spent"] = len(network._spent)
    sizes["prefixes"] = sum(len(store.entries) for store in stores)
    sizes["prefix_by_fid"] = sum(len(store.by_fid) for store in stores)
    sizes["buckets"] = sum(len(store.buckets) for store in stores)
    sizes["slots"] = sum(
        len(bucket.ranked)
        for store in stores
        for bucket in store.buckets.values()
    )
    return sizes


def test_session_state_does_not_grow_with_the_number_of_calls():
    service = PolicyService(
        PolicyConfig(policy="greedy", default_streams=4, max_streams=50)
    )

    def staging_jobs(tag, count):
        for i in range(count):
            advice = service.submit_transfers(
                "wf", f"{tag}{i}",
                [
                    {
                        "lfn": f"{tag}{i}-{k}",
                        "src_url": f"gsiftp://{SITES[k]}/data/{tag}{i}-{k}",
                        "dst_url": f"{DST}/{tag}{i}-{k}",
                        "nbytes": 10.0,
                    }
                    for k in range(3)
                ],
            )
            service.complete_transfers(done=[a.tid for a in advice])
            cleanups = service.submit_cleanups(
                "wf", f"clean-{tag}{i}", [(a.lfn, a.dst_url) for a in advice]
            )
            service.complete_cleanups([c.cid for c in cleanups])

    staging_jobs("warm", 20)
    before = session_census(service)
    staging_jobs("more", 200)
    assert session_census(service) == before
