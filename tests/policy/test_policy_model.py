"""Generated call sequences against the Table I-III model, on every deployment.

:class:`PolicyMachine` promotes the operations of
``test_session_reuse.Driver`` — submit, complete (with failures),
cleanup, cleaned, reconcile, unregister, reap, query, deny/allow and
admin — to a Hypothesis state machine.  Each step goes to the plain-dict
model of ``tests/policy/model.py`` and to every deployment the cell's
configuration promises to be exact on:

* a ``PolicyService``;
* a 2-shard and a 4-shard ``ShardedPolicyService`` (cells without
  tenants or catalog: a fleet charges tenant budgets and site bytes per
  shard, ``docs/sharding.md``);
* a journaled ``PolicyService``, which ``crash_and_recover`` replaces by
  ``PolicyService.recover`` on its directory.

After every step each deployment must agree with the model on the advice
(action and streams per item), the in-flight grants, the host-pair and
cluster ledgers, the staged files and their readers, the tenant ledgers
and the catalog's pins; and two invariants must hold on its grants: the
conflict graph (Carpen-Amarie et al.) — the grants in flight on one
ledger sum to at most its threshold plus one stream per grant made once
it was reached — and the tenant share (Hilman et al.) — a tenant holds at
most its budget plus one stream per grant made with the budget spent.
No deployment may advise a delete while another workflow still claims
the url: a claim is a request for the file (a reader) or a transfer into
it, held until that workflow cleans the url up or unregisters.  Calls
the machine makes malformed must raise everywhere and change nothing.

The client keeps one protocol rule: it asks for no transfer into a url
whose delete is outstanding.  Every deployment, like the model, would
tell such a transfer to wait
(``test_a_delete_completing_under_a_new_transfer_agrees_across_deployments``);
the machine keeps away from it so that its examples, and the mutants
they catch, stay those of a client that waits for its own deletes
(ROADMAP item 11(b) lifts the rule).

Every assertion names its invariant in brackets; the mutant tests below
check which one catches each seeded defect.  Tier-1 bounds are the
default Hypothesis profile of ``tests/conftest.py``; ``--hypothesis-profile
=long`` raises them.
"""

from __future__ import annotations

import shutil
import tempfile
from collections import Counter

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.datacatalog.model import CatalogConfig, ReplicaRecordFact, SiteCapacityFact
from repro.obs import Hooks
from repro.policy import PolicyConfig, PolicyJournal, PolicyService
from repro.policy import rules_common
from repro.policy.model import (
    CleanupFact,
    ClusterAllocationFact,
    HostPairFact,
    StagedFileFact,
    TransferFact,
)
from repro.policy.sharding import ShardedPolicyService

from tests.conftest import counter
from tests.policy.model import PolicyModel, Refused

SITES = ("fg-vm", "site-b", "site-c")
DST = "gsiftp://obelix/scratch"
WORKFLOWS = ("wf0", "wf1", "wf2")
LFNS = 8
TENANTS = {"small": 3, "large": 8}
CAPACITY = 2500.0  # two ~1 kB replicas fit the site; a third forces eviction
UNKNOWN = 10**6    # an id no deployment ever hands out
LEASE = 120.0
JOBS = ("j0", "j1", "j2")
#: a batch of (file, bytes, streams or None, cluster or None)
BATCHES = st.lists(
    st.tuples(
        st.integers(0, LFNS - 1), st.integers(900, 1100),
        st.one_of(st.none(), st.integers(0, 6)),
        st.one_of(st.none(), st.sampled_from(["c0", "c1"])),
    ),
    min_size=1, max_size=4,
)


def file_of(i: int) -> tuple[str, str]:
    return f"f{i}", f"{DST}/f{i}"


def spec_of(i: int, nbytes: float, streams=None, cluster=None) -> dict:
    lfn, url = file_of(i)
    spec = {"lfn": lfn, "src_url": f"gsiftp://{SITES[i % 3]}/data/{lfn}",
            "dst_url": url, "nbytes": nbytes}
    if streams is not None:
        spec["streams"] = streams
    if cluster is not None:
        spec["cluster"] = cluster
    return spec


class Deployment:
    """One system under test, with its ids for the model's keys."""

    def __init__(self, name, service, journal_dir=None):
        self.name, self.service, self.journal_dir = name, service, journal_dir
        self.tids: dict[int, int] = {}
        self.cids: dict[int, int] = {}

    def services(self):
        if isinstance(self.service, ShardedPolicyService):
            return [handle.service for handle in self.service.shards]
        return [self.service]

    def view(self) -> dict:
        """What the model must match, read from the deployment's memory."""
        inflight, staged, ledger, census = {}, {}, Counter(), Counter()
        replicas, deleting, used = {}, set(), 0.0
        for service in self.services():
            census.update(service.memory.snapshot())
            for t in service.memory.facts_of(TransferFact):
                if t.status == "in_progress":
                    inflight[t.tid] = t.allocated_streams or t.requested_streams or 1
            for r in service.memory.facts_of(StagedFileFact):
                assert (r.lfn, r.dst_url) not in staged, f"[staged] {self.name}: two resources"
                staged[(r.lfn, r.dst_url)] = (r.status, frozenset(r.users))
            for p in service.memory.facts_of(HostPairFact):
                ledger[(p.src_host, p.dst_host)] += p.allocated
            for c in service.memory.facts_of(ClusterAllocationFact):
                ledger[((c.src_host, c.dst_host), c.cluster)] += c.allocated
            for fact in service.memory.facts_of(ReplicaRecordFact):
                replicas[fact.url] = fact.pin_count
            used += sum(site.used_bytes for site in service.memory.facts_of(SiteCapacityFact))
            deleting |= {c.cid for c in service.memory.facts_of(CleanupFact)
                         if c.status == "in_progress"}
        tenants = {row["tenant"]: row["inflight_streams"] for row in self.service.tenants()}
        counts = {
            (kind, event): counter(self.service, f"repro_policy_{kind}_total", event=event)
            for kind in ("transfers", "cleanups") for event in ("submitted", "approved", "skipped")
        }
        return {
            "in-flight": inflight, "staged": staged, "tenants": tenants,
            "ledgers": {k: v for k, v in ledger.items() if v},
            "catalog": (replicas, used), "deleting": deleting, "census": census,
            "counts": counts,
        }


class PolicyMachine(RuleBasedStateMachine):
    @initialize(
        policy=st.sampled_from(["greedy", "balanced", "fifo"]),
        extras=st.sampled_from(["fleet", "tenants", "catalog"]),
    )
    def build(self, policy, extras):
        self.now = [0.0]
        self.dir = tempfile.mkdtemp(prefix="policy-model-")
        catalog = CatalogConfig(default_capacity=CAPACITY) if extras == "catalog" else None
        self.config = PolicyConfig(
            policy=policy, default_streams=4, max_streams=10,
            pair_thresholds={("site-b", "obelix"): 6}, cluster_count=2,
            cluster_threshold=3 if policy == "balanced" else None,
            access_control=True, lease_seconds=LEASE, catalog=catalog,
        )
        tenants = TENANTS if extras == "tenants" else {}
        self.model = PolicyModel(
            policy=policy, pair_thresholds=self.config.pair_thresholds,
            cluster_threshold=self.config.cluster_threshold, tenants=tenants,
            lease_seconds=LEASE, capacity=CAPACITY if catalog else None,
            catalog=catalog is not None,
        )
        clock = self.clock
        self.deployments = [Deployment("service", PolicyService(self.config, clock=clock))]
        if extras == "fleet":
            self.deployments += [
                Deployment(f"{n} shards", ShardedPolicyService(self.config, num_shards=n, clock=clock))
                for n in (2, 4)
            ]
        journal = PolicyJournal(self.dir, snapshot_interval=5)
        self.deployments.append(Deployment(
            "journaled", PolicyService(self.config, clock=clock, journal=journal), journal_dir=self.dir,
        ))
        for name, budget in tenants.items():
            for deployment in self.deployments:
                deployment.service.register_tenant(name, max_streams=budget)

    def clock(self) -> float:
        return self.now[0]

    def teardown(self):
        for deployment in getattr(self, "deployments", ()):
            deployment.service.close()
        if hasattr(self, "dir"):
            shutil.rmtree(self.dir, ignore_errors=True)

    # ------------------------------------------------------------------ helpers
    def each(self, call):
        """``call(deployment)`` on every deployment, in order."""
        return [(deployment, call(deployment)) for deployment in self.deployments]

    def claims(self, workflow, url) -> set:
        """Other workflows still claiming ``url``: readers, and transfers
        into it whose workflow has neither cleaned it up nor unregistered."""
        model = self.model
        held = {g["workflow"] for g in model.inflight.values()
                if g["url"] == url and not g["departed"]}
        return (model.readers(url) | held) - {workflow}

    # ------------------------------------------------------------------ rules
    @rule(dt=st.sampled_from([LEASE / 4, LEASE / 2, LEASE + 5]))
    def advance(self, dt):
        # Time moves by 0 or at least the sweep throttle (lease / 4), so a
        # throttled call sweeps exactly when a lease can have expired.
        self.now[0] += dt

    @rule(workflow=st.sampled_from(WORKFLOWS), job=st.sampled_from(JOBS), items=BATCHES)
    def submit(self, workflow, job, items):
        deleting = {c["url"] for c in self.model.deleting.values()}
        specs = [spec_of(*item) for item in items if file_of(item[0])[1] not in deleting]
        if not specs:
            return
        expected = self.model.submit(workflow, job, specs, self.clock())
        for deployment, advice in self.each(
            lambda d: d.service.submit_transfers(workflow, job, [dict(s) for s in specs])
        ):
            got = [(a.tid, a.action, a.streams if a.action == "transfer" else None)
                   for a in sorted(advice, key=lambda a: a.tid)]
            assert [g[1:] for g in got] == [e[1:] for e in expected], (
                f"[advice] {deployment.name}: {got} != {expected}"
            )
            for (key, _, _), (tid, _, _) in zip(expected, got):
                if key is not None:
                    deployment.tids[key] = tid

    @rule(workflow=st.sampled_from(WORKFLOWS), job=st.sampled_from(JOBS), items=BATCHES)
    def submit_again(self, workflow, job, items):
        """Batches feed every other rule: give them twice the weight."""
        self.submit(workflow, job, items)

    @precondition(lambda self: self.model.inflight)
    @rule(data=st.data())
    def complete(self, data):
        self._complete(data, failure=False)

    @precondition(lambda self: self.model.inflight)
    @rule(data=st.data())
    def fail(self, data):
        self._complete(data, failure=True)

    def _complete(self, data, failure):
        """Report up to two transfers done, or one failed (plus an unknown id)."""
        keys = sorted(self.model.inflight)
        drawn = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=1 if failure else 2))
        done, failed = ([], drawn) if failure else (drawn, [])
        expected = self.model.complete(done + [-1], failed, self.clock())
        for deployment, result in self.each(lambda d: d.service.complete_transfers(
            done=[d.tids[k] for k in done] + [UNKNOWN], failed=[d.tids[k] for k in failed],
        )):
            assert result["acknowledged"] == expected, f"[advice] {deployment.name}: {result}"

    # Listed the other way round: the simplest cleanup comes from another
    # workflow than the simplest submit, so sharing is tried early.
    @rule(workflow=st.sampled_from(WORKFLOWS[::-1]), data=st.data())
    def cleanup(self, workflow, data):
        known = sorted({file for file in self.model.staged} | {file_of(i) for i in range(2)})
        files = data.draw(st.lists(st.sampled_from(known), min_size=1, max_size=3))
        files.append((f"never-{data.draw(st.integers(0, 2))}", f"{DST}/never"))
        self.model.sweep(self.clock())  # the call's own sweep comes first
        claims = {url: self.claims(workflow, url) for _lfn, url in files}
        expected = self.model.cleanup(workflow, files, self.clock())
        for deployment, advice in self.each(
            lambda d: d.service.submit_cleanups(workflow, "clean", list(files))
        ):
            advice = sorted(advice, key=lambda a: a.cid)
            for item in advice:
                if item.action == "delete":
                    assert not claims[item.url], (
                        f"[no-delete-with-reader] {deployment.name} deletes {item.url} "
                        f"claimed by {sorted(claims[item.url])}"
                    )
            got = [a.action for a in advice]
            assert got == [e[1] for e in expected], f"[advice] {deployment.name}: {got} != {expected}"
            for (key, _), item in zip(expected, advice):
                if key is not None:
                    deployment.cids[key] = item.cid

    @precondition(lambda self: self.model.deleting)
    @rule()
    def cleaned(self):
        keys = sorted(self.model.deleting)
        expected = self.model.cleaned(keys + [-1], self.clock())
        for deployment, result in self.each(
            lambda d: d.service.complete_cleanups([d.cids[k] for k in keys] + [UNKNOWN])
        ):
            assert result["acknowledged"] == expected, f"[advice] {deployment.name}: {result}"

    @rule(
        workflow=st.sampled_from(WORKFLOWS),
        items=st.lists(st.tuples(st.integers(0, LFNS - 1), st.one_of(st.none(), st.integers(500, 1000))),
                       min_size=1, max_size=3),
    )
    def reconcile(self, workflow, items):
        files = [file_of(i) + ((float(n),) if n is not None else ()) for i, n in items]
        expected = self.model.reconcile(workflow, files, self.clock())
        for deployment, result in self.each(lambda d: d.service.reconcile_staged(workflow, files)):
            assert result == expected, f"[advice] {deployment.name}: {result} != {expected}"

    @rule(workflow=st.sampled_from(WORKFLOWS), retain=st.booleans())
    def unregister(self, workflow, retain):
        self.model.unregister(workflow, retain)
        self.each(lambda d: d.service.unregister_workflow(workflow, retain_staged=retain))

    @rule()
    def reap(self):
        self.model.sweep(self.clock())
        self.each(lambda d: d.service.reap_expired())

    @rule(data=st.data())
    def query(self, data):
        keys = sorted(set(self.model.finished) | set(self.model.inflight))
        if keys:
            key = data.draw(st.sampled_from(keys))
            expected = self.model.state(key, self.clock())
            for deployment, state in self.each(lambda d: d.service.transfer_state(d.tids[key])):
                assert state == expected, f"[advice] {deployment.name}: transfer {state} != {expected}"
        lfn, url = file_of(data.draw(st.integers(0, LFNS - 1)))
        expected = self.model.staging_state(lfn, url, self.clock())
        for deployment, state in self.each(lambda d: d.service.staging_state(lfn, url)):
            assert state == expected, f"[advice] {deployment.name}: staging {state} != {expected}"

    @rule(site=st.sampled_from(SITES), deny=st.booleans())
    def deny_or_allow(self, site, deny):
        if deny:
            self.model.deny(site)
            self.each(lambda d: d.service.deny_host(site, reason="maintenance"))
        else:
            expected = self.model.allow(site)
            for deployment, removed in self.each(lambda d: d.service.allow_host(site)):
                assert removed == expected, f"[advice] {deployment.name}: {removed} != {expected}"

    @precondition(lambda self: self.model.budgets)
    @rule(workflow=st.sampled_from(WORKFLOWS), tenant=st.sampled_from(sorted(TENANTS)))
    def bind(self, workflow, tenant):
        self.model.bind(workflow, tenant)
        self.each(lambda d: d.service.bind_workflow(workflow, tenant))

    @precondition(lambda self: self.model.replicas)
    @rule(data=st.data(), pinned=st.booleans())
    def pin(self, data, pinned):
        url = data.draw(st.sampled_from(sorted(self.model.replicas)))
        expected = self.model.pin(url, pinned)
        for deployment, result in self.each(lambda d: d.service.catalog_pin(url, pinned)):
            assert result["pin_count"] == expected, f"[catalog] {deployment.name}: {result}"

    @rule()
    def crash_and_recover(self):
        deployment = self.deployments[-1]
        deployment.service.close()
        deployment.service = PolicyService.recover(
            deployment.journal_dir, config=self.config, clock=self.clock, snapshot_interval=5,
            hooks=Hooks(metrics=deployment.service.metrics),  # counters carry over a restart
        )

    @rule(kind=st.sampled_from(["transfers", "cleanups", "reconcile", "tenant", "replica"]),
          i=st.integers(0, LFNS - 1))
    def failing_call(self, kind, i):
        """A malformed call raises everywhere and changes nothing."""
        lfn, url = file_of(i)
        # The bad spec names another file the deployment may know, so a
        # fleet routes it by its owner, not by its (missing) source.
        batch = [spec_of(i, 1000), dict(zip(("lfn", "dst_url"), file_of((i + 1) % LFNS)))]
        calls = {
            "transfers": (
                lambda m: m.submit("wf0", "bad", batch, self.clock()),
                lambda s: s.submit_transfers("wf0", "bad", [dict(spec) for spec in batch]),
            ),
            "cleanups": (
                lambda m: m.cleanup("wf0", [(lfn, url), (lfn,)], self.clock()),
                lambda s: s.submit_cleanups("wf0", "bad", [(lfn, url), (lfn,)]),
            ),
            "reconcile": (
                lambda m: m.reconcile("wf0", [(lfn, url), (lfn,)], self.clock()),
                lambda s: s.reconcile_staged("wf0", [(lfn, url), (lfn,)]),
            ),
            "tenant": (
                lambda m: m.bind("wf0", "nobody"),
                lambda s: s.bind_workflow("wf0", "nobody"),
            ),
            "replica": (
                lambda m: m.pin(f"{DST}/unknown", True),
                lambda s: s.catalog_pin(f"{DST}/unknown"),
            ),
        }
        if kind == "replica" and not self.model.catalog:
            return
        # Sweep first: the failing call's own sweep then changes nothing.
        self.reap()
        model_call, call = calls[kind]
        with pytest.raises(Refused):
            model_call(self.model)
        for deployment in self.deployments:
            before = deployment.view()
            with pytest.raises(Exception):
                call(deployment.service)
            assert deployment.view() == before, f"[failed-call] {deployment.name}: {kind} changed state"

    # ------------------------------------------------------------------ invariants
    @invariant()
    def deployments_match_the_model(self):
        if not hasattr(self, "model"):
            return
        model = self.model
        for deployment in self.deployments:
            view = deployment.view()
            expected = {deployment.tids[k]: g["streams"] for k, g in model.inflight.items()}
            assert view["in-flight"] == expected, (
                f"[in-flight] {deployment.name}: {view['in-flight']} != {expected}"
            )
            ledgers = {k: v for k, v in model.ledger.items() if v}
            assert view["ledgers"] == ledgers, f"[ledgers] {deployment.name}: {view['ledgers']} != {ledgers}"
            staged = {file: (s["status"], frozenset(s["users"])) for file, s in model.staged.items()}
            assert view["staged"] == staged, f"[staged] {deployment.name}: {view['staged']} != {staged}"
            assert view["tenants"] == model.tenants, f"[tenants] {deployment.name}: {view['tenants']}"
            catalog = ({url: r["pins"] for url, r in model.replicas.items()}, model.used)
            assert view["catalog"] == catalog, f"[catalog] {deployment.name}: {view['catalog']} != {catalog}"
            deleting = {deployment.cids[k] for k in model.deleting}
            assert view["deleting"] == deleting, f"[cleanups] {deployment.name}: {view['deleting']}"
            self.check_shares(deployment, view)
            self.check_counters(deployment)

    def check_counters(self, deployment):
        """The registry counts every advice the model gave, and the
        decision log explains each one."""
        for (kind, event), count in self.model.counts.items():
            got = counter(deployment.service, f"repro_policy_{kind}_total", event=event)
            assert got == count, f"[registry] {deployment.name}: {kind} {event} {got} != {count}"
        records = Counter(r["kind"] for r in deployment.service.decision_records())
        for kind in ("transfers", "cleanups"):
            submitted = self.model.counts[kind, "submitted"]
            assert records[kind[:-1]] == submitted, (
                f"[registry] {deployment.name}: {records[kind[:-1]]} {kind} explained, "
                f"{submitted} advised"
            )

    def check_shares(self, deployment, view):
        """Conflict graph per ledger, tenant share per tenant."""
        model = self.model
        held, floors = Counter(), Counter()
        tenant_held, tenant_floors = Counter(), Counter()
        thresholds = {}
        for key, grant in model.inflight.items():
            streams = view["in-flight"][deployment.tids[key]]
            if grant["ledger"] is not None:
                held[grant["ledger"]] += streams
                floors[grant["ledger"]] += grant["floor"]
                thresholds[grant["ledger"]] = grant["threshold"]
            if grant["tenant"] in model.budgets:
                tenant_held[grant["tenant"]] += streams
                tenant_floors[grant["tenant"]] += grant["tenant_floor"]
        for ledger, streams in held.items():
            assert streams <= thresholds[ledger] + floors[ledger], (
                f"[conflict-graph] {deployment.name}: {ledger} holds {streams} "
                f"> {thresholds[ledger]}"
            )
        for tenant, streams in tenant_held.items():
            assert streams <= model.budgets[tenant] + tenant_floors[tenant], (
                f"[tenant-share] {deployment.name}: {tenant} holds {streams}"
            )


TestPolicyMachine = PolicyMachine.TestCase
# A failing machine reports its first failing example as found: shrinking
# a 25-step failure took ~6 minutes.  Generation is untouched, so tier-1
# runs the same examples (the scorecard profile drops shrinking the same
# way).
TestPolicyMachine.settings = settings(
    settings.default, phases=[p for p in settings.default.phases if p is not Phase.shrink],
)


def test_a_delete_completing_under_a_new_transfer_agrees_across_deployments():
    """A transfer into a url whose delete is outstanding waits, the file
    reads "deleting" meanwhile, and the delete's completion leaves every
    deployment with nothing at the url: the waiter then restages it."""
    lfn, url = file_of(0)
    spec = spec_of(0, 1000)

    def run(service):
        (delete,) = service.submit_cleanups("wf0", "clean", [(lfn, url)])
        # The batch's duplicate waits too: the delete outranks it.
        transfers = service.submit_transfers("wf1", "j", [spec, dict(spec)])
        waiting = service.staging_state(lfn, url)
        service.complete_cleanups([delete.cid])
        (again,) = service.submit_transfers("wf1", "j", [spec])
        return (delete.action, [t.action for t in transfers], waiting, again.action,
                service.staging_state(lfn, url))

    model = PolicyModel()
    ((key, delete),) = model.cleanup("wf0", [(lfn, url)], 0.0)
    waits = [action for _, action, _ in model.submit("wf1", "j", [spec, spec], 0.0)]
    waiting = model.staging_state(lfn, url, 0.0)
    model.cleaned([key], 0.0)
    ((_, again, _),) = model.submit("wf1", "j", [spec], 0.0)
    expected = (delete, waits, waiting, again, model.staging_state(lfn, url, 0.0))
    assert expected == ("delete", ["wait", "wait"], "deleting", "transfer", "staging")
    config = PolicyConfig(policy="greedy", max_streams=10)
    assert run(PolicyService(config)) == expected
    for shards in (2, 4):
        assert run(ShardedPolicyService(config, num_shards=shards)) == expected


@pytest.mark.parametrize("in_flight", [False, True], ids=["batch-duplicate", "in-flight"])
def test_the_staged_file_row_outranks_its_dedup_neighbours(in_flight):
    """A request for a staged file is skipped as staged (Table I) before
    batch de-duplication claims its same-batch duplicate, and before the
    in-flight row claims it when the file was reconciled as staged while
    its own transfer is still in flight.  The machine draws neither
    sequence; with the staged-file row moved onto either neighbour's tier
    (the scorecard's ``tie`` and ``non-confluent`` mutants) the older
    facts of the other row win the tie."""
    lfn, url = file_of(0)
    spec = spec_of(0, 1000)
    batch = [spec] if in_flight else [spec, spec]

    def run(service):
        if in_flight:
            service.submit_transfers("wf0", "j0", [dict(spec)])
        service.reconcile_staged("wf0", [(lfn, url)])
        advice = service.submit_transfers("wf1", "j1", [dict(s) for s in batch])
        return [(a.action, a.reason) for a in sorted(advice, key=lambda a: a.tid)]

    model = PolicyModel()
    if in_flight:
        model.submit("wf0", "j0", [spec], 0.0)
    model.reconcile("wf0", [(lfn, url)], 0.0)
    assert [action for _, action, _ in model.submit("wf1", "j1", batch, 0.0)] == ["skip"] * len(batch)
    expected = [("skip", f"file already staged at {url}"),
                ("skip", "duplicate of transfer 1 in this request")][:len(batch)]
    config = PolicyConfig(policy="greedy", max_streams=10)
    assert run(PolicyService(config)) == expected
    for shards in (2, 4):
        assert run(ShardedPolicyService(config, num_shards=shards)) == expected


# ------------------------------------------------------------------ mutants
def _approve_in_use(ctx):
    ctx.update(ctx.c, status="approved")


def _release_twice_on_failure(ctx):
    rules_common._release(ctx, ctx.t)
    original_remove_failed(ctx)


def _no_cross_workflow_wait(ctx):
    pass


original_remove_failed = rules_common._remove_failed

MUTANTS = {
    "approve-in-use": ("_skip_cleanup_in_use", _approve_in_use, "[no-delete-with-reader]"),
    "double-release": ("_remove_failed", _release_twice_on_failure, "[ledgers]"),
    "no-cross-workflow-dedup": ("_wait_for_in_flight", _no_cross_workflow_wait, "[advice]"),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_mutant_fails_the_machine(mutant, monkeypatch):
    name, action, caught_by = MUTANTS[mutant]
    monkeypatch.setattr(rules_common, name, action)
    with pytest.raises(AssertionError) as failure:
        run_state_machine_as_test(PolicyMachine, settings=settings(
            settings.default, phases=[Phase.generate], print_blob=False,
            suppress_health_check=list(HealthCheck),
        ))
    assert caught_by in str(failure.value), str(failure.value)
