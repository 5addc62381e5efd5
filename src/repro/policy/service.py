"""The Policy Service: sessions of policy rules over persistent memory.

One :class:`PolicyService` instance corresponds to the paper's deployed
service: it holds the long-lived **policy memory** (pending transfers,
staged-file resources, host-pair allocations) and evaluates each incoming
request batch in a rule session against that memory.  Multiple workflows
talk to the same service instance — that is how cross-workflow
de-duplication and safe sharing of staged files happen.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Optional, Sequence

from repro.obs.hooks import NO_HOOKS, Hooks
from repro.obs.tracer import NULL_TRACER
from repro.rules import Rule, Session, WorkingMemory

from repro.datacatalog.catalog import DataCatalog
from repro.datacatalog.model import EvictionSweepFact
from repro.datacatalog.rules_eviction import EVICTED_GLOBAL, eviction_rules
from repro.policy.adaptive import AdaptiveThresholdController
from repro.policy.journal import JournalError, PolicyJournal
from repro.policy.model import (
    CleanupAdvice,
    CleanupFact,
    ClusterAllocationFact,
    HostPairFact,
    LeaseSweepFact,
    PolicyConfig,
    StagedFileFact,
    TransferAdvice,
    TransferFact,
)
from repro.policy.provenance import (
    DecisionLog,
    FiringCollector,
    attribute_firings_by_ref,
    cleanup_record,
    eviction_record,
    index_firings,
    ledger_snapshot,
    transfer_record,
)
from repro.policy.rules_access import HostDenialFact, WorkflowQuotaFact, access_rules
from repro.policy.rules_balanced import balanced_rules
from repro.policy.rules_common import common_rules
from repro.policy.rules_fairshare import TenantFact, TenantWorkflowFact, fairshare_rules
from repro.policy.rules_greedy import greedy_rules
from repro.policy.rules_priority import JobPriorityFact, priority_rules

__all__ = [
    "Envelope", "PolicyRefusedError", "PolicyService", "UnknownReplicaError", "order_advice",
    "rule_packs",
]


class PolicyRefusedError(RuntimeError):
    """The service will not do what was asked as it is configured or
    populated: a pack that is not enabled, a tenant that is not
    registered.  The caller's fault (HTTP 400), unlike any other
    ``RuntimeError`` a call may raise."""


class UnknownReplicaError(PolicyRefusedError, KeyError):
    """No catalog replica at the url a caller wants to pin."""


def rule_packs(config: PolicyConfig) -> list[Callable[[], Sequence[Rule]]]:
    """The pack builders a service running ``config`` loads, in rule
    order — the one statement of it, shared with the linter and the
    verifier so a pack added here is analysed too."""
    # fairshare is always composed (inert without tenant facts)
    packs = [common_rules, priority_rules, fairshare_rules]
    if config.access_control:
        packs.append(access_rules)
    if config.policy == "greedy":
        packs.append(greedy_rules)
    elif config.policy == "balanced":
        packs.append(balanced_rules)
    if config.catalog is not None:
        packs.append(eviction_rules)
    return packs


_ADVICE_RANK = {"transfer": 0, "wait": 1, "skip": 2, "deny": 3}


def order_advice(advice: list[TransferAdvice], order_by: str) -> list[TransferAdvice]:
    """Order: executable transfers first ("Sort the list of transfers by
    the source and destination URLs", optionally by priority), then
    waits, then skips."""

    def key(a: TransferAdvice):
        if order_by == "priority":
            return (_ADVICE_RANK[a.action], -a.priority, a.src_url, a.dst_url, a.tid)
        return (_ADVICE_RANK[a.action], a.src_url, a.dst_url, a.tid)

    return sorted(advice, key=key)


#: A transfer fact's status once the rules have run -> the advice action;
#: every other status (``skip_duplicate`` / ``skip_staged``) is a skip.
_ADVICE_OF_STATUS = {"new": "transfer", "wait": "wait", "denied": "deny"}

#: advice action -> the ``event`` the ``transfers`` counter counts it under
_EVENT_OF_ACTION = {"transfer": "approved", "wait": "waited", "deny": "denied", "skip": "skipped"}


class Envelope:
    """One counted call's envelope, shared by the service, the shard router
    and the REST server: count it, time it and, only while tracing, open
    its ``span`` (``(cat, name, track, args)``), closed on every path out
    with the arguments put in :attr:`closing` or the error's type alone.
    ``on_exit(failed)`` runs first on the way out of a ``with``; the REST
    server, whose request spans two loop callbacks, calls :meth:`close`
    and reads :attr:`elapsed`."""

    __slots__ = ("closing", "elapsed", "_tracer", "_span", "_seconds", "_on_exit", "_t0")

    def __init__(self, tracer=NULL_TRACER, span=None, counts=(), seconds=None, on_exit=None):
        for count in counts:
            count.inc()
        self._tracer, self._seconds, self._on_exit = tracer, seconds, on_exit
        self._span = None
        if span is not None and tracer.enabled:
            cat, name, track, args = span
            self._span = tracer.begin(cat, name, track=track, **args)
        self.closing: dict = {}
        self._t0 = time.perf_counter()

    def __enter__(self) -> dict:
        return self.closing

    def close(self, kind=None, _value=None, _traceback=None) -> None:
        """End the call (failed when ``kind``, an exception type, is
        given): time it into :attr:`elapsed` and close its span."""
        if kind is not None:
            self.closing = {"error": kind.__name__}
        if self._on_exit is not None:
            self._on_exit(kind is not None)
        self.elapsed = time.perf_counter() - self._t0
        if self._seconds is not None:
            self._seconds.observe(self.elapsed)
        if self._span is not None:
            self._tracer.end(self._span, **self.closing)

    __exit__ = close  # one call out of a ``with``; returns None: never swallows


class _BoundedIdSet:
    """Insertion-ordered id set that forgets its oldest members beyond a
    size cap — retention for completed/failed transfer ids."""

    __slots__ = ("_cap", "_ids")

    def __init__(self, cap: int):
        self._cap = int(cap)
        self._ids: dict[int, None] = {}

    def add(self, value: int) -> None:
        ids = self._ids
        if value in ids:
            return
        ids[value] = None
        while len(ids) > self._cap:
            del ids[next(iter(ids))]

    def ids(self) -> list[int]:
        """Retained ids, oldest first (for snapshots)."""
        return list(self._ids)

    def __contains__(self, value: int) -> bool:
        return value in self._ids

    def __len__(self) -> int:
        return len(self._ids)


class PolicyService:
    """The policy engine of paper Fig. 1.

    Parameters
    ----------
    config:
        Policy settings; selects the allocation rule pack
        (``greedy`` / ``balanced`` / ``fifo``).
    journal:
        A :class:`~repro.policy.journal.PolicyJournal` making the policy
        memory durable.  The journal directory must be empty/fresh here;
        to resume after a crash use :meth:`PolicyService.recover`.
    hooks:
        The deployment's :class:`~repro.obs.hooks.Hooks`; :attr:`hooks`
        holds them as the service reports to them.  The registry holds
        every ``repro_policy_*`` counter, the tracer gets a span per call
        on the ``policy`` track, and the profiler's per-rule tallies are
        the ``repro_policy_rule_profile_*`` gauges.
    profiler:
        A :class:`~repro.obs.profiler.RuleProfiler` that replaces the
        hooks' one (``bench/trace.py`` binds it by signature).
    """

    #: the rule session every service is built on; tests set the
    #: reference matcher here (``tests/reference.py``), nothing else does
    session_class = Session

    def __init__(
        self,
        config: Optional[PolicyConfig] = None,
        clock: Optional[Callable[[], float]] = None,
        journal: Optional[PolicyJournal] = None,
        hooks: Hooks = NO_HOOKS,
        profiler=None,
    ):
        self.config = config or PolicyConfig()
        #: time source for adaptive epochs — the simulated clock inside a
        #: simulation, wall time behind the REST frontend
        self.clock = clock or time.monotonic
        self.adaptive: Optional[AdaptiveThresholdController] = None
        if self.config.adaptive:
            self.adaptive = AdaptiveThresholdController(
                self.config.max_streams, self.config.adaptive_settings
            )
        self.memory = WorkingMemory()
        self.globals: dict = {"config": self.config, "group_counter": 1}
        #: durable staged-data catalog over this memory (None when disabled)
        self.catalog: Optional[DataCatalog] = (
            DataCatalog(self.memory, self.config.catalog)
            if self.config.catalog is not None
            else None
        )
        self._rules = [rule for pack in rule_packs(self.config) for rule in pack()]
        # Plain integer counters (not itertools.count) so snapshots can
        # read the high-water marks and recovery can restore them.
        self._tid_last = 0
        self._cid_last = 0
        self._batch_last = 0
        retention = self.config.completed_tid_retention
        self._done_tids = _BoundedIdSet(retention)
        self._failed_tids = _BoundedIdSet(retention)
        self._next_sweep = float("-inf")
        self.hooks = hooks.owned(profiler)
        self.metrics = self.hooks.metrics
        # The one rule session of this service.  Its join network
        # outlives the call and follows the memory's change log, so a
        # call pays for the facts it touches, not for re-matching the
        # resident set; ``_session()`` hands it out reset.
        self._rule_session: Session = self.session_class(
            self._rules, memory=self.memory, globals=self.globals, profiler=self.hooks.profiler
        )
        #: decision-provenance log, bounded to ``config.decision_log_cap``
        self.decisions = DecisionLog(self.config.decision_log_cap)
        #: shard index stamped into decision records (set by the sharding
        #: backend; None on a standalone service)
        self.shard_index: Optional[int] = None
        self._init_metrics()
        self.journal: Optional[PolicyJournal] = None
        self._last_committed_counters: Optional[dict] = None
        if journal is not None:
            if journal.has_state():
                raise JournalError(
                    f"journal at {journal.dir} already holds state; "
                    "use PolicyService.recover() to resume from it"
                )
            self.attach_journal(journal)

    # ------------------------------------------------------------------ metrics
    _TRANSFER_EVENTS = (
        "requests", "submitted", "approved", "skipped", "waited", "denied", "reaped",
    )
    _CLEANUP_EVENTS = ("requests", "submitted", "approved", "skipped", "reaped")
    _CALLS = (
        "submit_transfers", "complete_transfers", "submit_cleanups",
        "complete_cleanups", "reap", "reconcile_staged",
    )

    def _init_metrics(self) -> None:
        """Register the service's metric families and pre-resolve the label
        children touched on hot paths (one attribute lookup per increment)."""
        m = self.metrics
        transfers = m.counter(
            "repro_policy_transfers_total", "Transfer requests by outcome", ("event",)
        )
        cleanups = m.counter(
            "repro_policy_cleanups_total", "Cleanup requests by outcome", ("event",)
        )
        calls = m.counter(
            "repro_policy_calls_total", "Service calls by entry point", ("call",)
        )
        call_seconds = m.histogram(
            "repro_policy_call_seconds",
            "Service call wall-clock latency", ("call",),
        )
        batch_size = m.histogram(
            "repro_policy_batch_size", "Items per submit batch", ("kind",),
            buckets=(1, 2, 5, 10, 20, 50, 100, 200, 500),
        )
        self._m_transfers = {e: transfers.labels(event=e) for e in self._TRANSFER_EVENTS}
        self._m_cleanups = {e: cleanups.labels(event=e) for e in self._CLEANUP_EVENTS}
        self._m_calls = {c: calls.labels(call=c) for c in self._CALLS}
        self._m_call_seconds = {c: call_seconds.labels(call=c) for c in self._CALLS}
        self._m_batch = {k: batch_size.labels(kind=k) for k in ("transfers", "cleanups")}
        self._m_firings = m.counter(
            "repro_policy_rule_firings_total", "Rule firings across all sessions"
        )._only_child()
        self._m_staged_reconciled = m.counter(
            "repro_policy_staged_reconciled_total",
            "Staged files adopted by reconciliation",
        )._only_child()
        self._m_lease_sweeps = m.counter(
            "repro_policy_lease_sweeps_total", "Lease sweeps executed"
        )._only_child()
        catalog_events = m.counter(
            "repro_policy_catalog_events_total",
            "Staged-data catalog events",
            ("event",),
        )
        self._m_catalog = {
            e: catalog_events.labels(event=e)
            for e in ("hits", "evictions", "selected")
        }
        self._m_journal_commits = m.counter(
            "repro_policy_journal_commits_total", "Journal transactions committed"
        )._only_child()
        self._m_journal_commit_seconds = m.histogram(
            "repro_policy_journal_commit_seconds",
            "Journal commit wall-clock latency",
        )._only_child()
        self._m_journal_snapshot_failures = m.counter(
            "repro_policy_journal_snapshot_failures_total",
            "Journal snapshots that failed with an OS error (retried next commit)",
        )._only_child()
        self._m_ids = m.gauge(
            "repro_policy_id_highwater", "Id counter high-water marks", ("kind",)
        )
        self._m_retained = m.gauge(
            "repro_policy_retained",
            "Live facts, change-log entries and decision records held",
            ("kind",),
        )
        self._m_retained_bytes = m.gauge(
            "repro_policy_retained_bytes",
            "Encoded bytes of the decision records held",
            ("kind",),
        )
        self._m_tenant_inflight = m.gauge(
            "repro_policy_tenant_inflight_streams",
            "Streams currently reserved against a tenant's aggregate budget",
            ("tenant",),
        )
        self._m_tenant_bytes = m.gauge(
            "repro_policy_tenant_bytes_staged",
            "Bytes successfully staged on behalf of a tenant",
            ("tenant",),
        )
        self._m_tenant_workflows = m.gauge(
            "repro_policy_tenant_workflows",
            "Workflows currently bound to a tenant",
            ("tenant",),
        )
        # Per-rule profiler families, refreshed at scrape time from the
        # attached RuleProfiler (no samples without one).
        self._m_rule_fires = m.gauge(
            "repro_policy_rule_profile_fires",
            "Rule action executions tallied by the profiler",
            ("rule",),
        )
        self._m_rule_match_seconds = m.gauge(
            "repro_policy_rule_profile_match_seconds",
            "Wall time matching a rule's conditions",
            ("rule",),
        )
        self._m_rule_action_seconds = m.gauge(
            "repro_policy_rule_profile_action_seconds",
            "Wall time executing a rule's action",
            ("rule",),
        )

    def _refresh_profiler_metrics(self) -> None:
        """Mirror the profiler's per-rule tallies into the registry."""
        if self.hooks.profiler is None:
            return
        for row in self.hooks.profiler.stats.values():
            self._m_rule_fires.set(row.fires, rule=row.name)
            self._m_rule_match_seconds.set(row.match_s, rule=row.name)
            self._m_rule_action_seconds.set(row.action_s, rule=row.name)

    def _refresh_census_metrics(self) -> None:
        for kind, value in self.counters().items():
            self._m_ids.set(value, kind=kind)
        self._m_retained.set(len(self.memory), kind="facts")
        self._m_retained.set(self.memory.retained_changes, kind="changes")
        self._m_retained.set(len(self.decisions), kind="decisions")
        self._m_retained_bytes.set(self.decisions.nbytes, kind="decisions")

    def _refresh_tenant_metrics(self) -> None:
        bound: dict[str, int] = {}
        for binding in self.memory.facts_of(TenantWorkflowFact):
            bound[binding.tenant] = bound.get(binding.tenant, 0) + 1
        for fact in self.memory.facts_of(TenantFact):
            self._m_tenant_inflight.set(fact.inflight_streams, tenant=fact.tenant)
            self._m_tenant_bytes.set(fact.bytes_staged, tenant=fact.tenant)
            self._m_tenant_workflows.set(bound.get(fact.tenant, 0), tenant=fact.tenant)

    # ------------------------------------------------------------------ counters
    def _next_tid(self) -> int:
        self._tid_last += 1
        return self._tid_last

    def _next_cid(self) -> int:
        self._cid_last += 1
        return self._cid_last

    def _next_batch(self) -> int:
        self._batch_last += 1
        return self._batch_last

    def counters(self) -> dict:
        """Durable id high-water marks (journaled with every commit)."""
        return {
            "tid": self._tid_last,
            "cid": self._cid_last,
            "batch": self._batch_last,
            "group": self.globals["group_counter"],
        }

    def config_fingerprint(self) -> dict:
        """Advice-relevant configuration, stored in snapshots so recovery
        with a different policy is rejected instead of silently diverging."""
        return self.config.fingerprint()

    # ------------------------------------------------------------------ journal
    def attach_journal(self, journal: PolicyJournal) -> None:
        """Start journaling into ``journal`` (snapshots current state first)."""
        self.journal = journal
        journal.write_snapshot(self)
        self._last_committed_counters = self.counters()
        self.memory.observer = journal.record_mutation

    def close(self) -> None:
        """Close the journal file (a no-op without one)."""
        if self.journal is not None:
            self.journal.close()

    def _end_transaction(self, failed: bool) -> None:
        """Abort a failed call's journal records; release the session's
        firing listener either way (no collector outlives its call)."""
        if failed and self.journal is not None:
            self.journal.abort()
        self._rule_session.firing_listener = None

    def _transaction(self) -> Envelope:
        """The journal transaction of an uncounted admin mutation."""
        return Envelope(on_exit=self._end_transaction)

    def _call(self, name: str, *counts, **span_args) -> Envelope:
        """Entry point ``name``'s envelope: counted (with ``counts``), timed,
        spanned as ``policy.<name>``, scoping its journal transaction."""
        return Envelope(
            self.hooks.tracer, ("policy", f"policy.{name}", "policy", span_args),
            (self._m_calls[name], *counts), self._m_call_seconds[name], self._end_transaction,
        )

    def _commit_journal(self, done: Iterable[int] = (), failed: Iterable[int] = ()) -> None:
        journal = self.journal
        if journal is None:
            return
        done, failed = list(done), list(failed)
        counters = self.counters()
        if not journal.has_pending and not done and not failed \
                and counters == self._last_committed_counters:
            return  # nothing durable changed — queries stay free
        t0 = time.perf_counter()
        journal.commit(counters, done, failed)
        self._m_journal_commit_seconds.observe(time.perf_counter() - t0)
        self._m_journal_commits.inc()
        self._last_committed_counters = counters
        if journal.wants_snapshot:
            try:
                journal.write_snapshot(self)
            except OSError:
                # The call is already durable in the journal; a snapshot
                # only compacts it.  ``wants_snapshot`` stays true, so the
                # next commit tries again.
                self._m_journal_snapshot_failures.inc()

    @classmethod
    def recover(
        cls,
        path,
        config: Optional[PolicyConfig] = None,
        clock: Optional[Callable[[], float]] = None,
        snapshot_interval: int = 1000,
        fsync: bool = False,
        hooks: Hooks = NO_HOOKS,
    ) -> "PolicyService":
        """Rebuild a service from its journal directory after a crash.

        Loads the snapshot, replays every committed journal transaction,
        restores the id counters and done/failed retention sets, writes a
        fresh compaction snapshot, and resumes journaling.  Facts re-enter
        working memory in fid order, so rule activation ordering — and
        therefore advice — is byte-identical to an uncrashed service.

        ``config`` must match what the crashed service ran with (the
        snapshot fingerprint is checked); pass ``path`` as a directory or
        an existing :class:`PolicyJournal`.
        """
        journal = path if isinstance(path, PolicyJournal) else PolicyJournal(
            path, snapshot_interval=snapshot_interval, fsync=fsync
        )
        service = cls(config, clock=clock, hooks=hooks)
        # Decision records enter the bounded log as they are read, in
        # their original order, so it evicts exactly as the live one did
        # and the recovered log is byte-identical.  They are all in before
        # attach_journal, whose fresh compaction snapshot includes them.
        state = journal.load(service.decisions.add)
        fingerprint = service.config_fingerprint()
        if state.fingerprint is not None and state.fingerprint != fingerprint:
            diffs = {
                key: (state.fingerprint.get(key), fingerprint.get(key))
                for key in fingerprint
                if state.fingerprint.get(key) != fingerprint.get(key)
            }
            raise JournalError(
                f"journal at {journal.dir} was written under a different "
                f"configuration: {diffs}"
            )
        for _fid, fact in state.facts_in_fid_order():
            service.memory.insert(fact)
        counters = state.counters
        service._tid_last = int(counters["tid"])
        service._cid_last = int(counters["cid"])
        service._batch_last = int(counters["batch"])
        service.globals["group_counter"] = int(counters["group"])
        for tid in state.done_tids:
            service._done_tids.add(tid)
        for tid in state.failed_tids:
            service._failed_tids.add(tid)
        service.attach_journal(journal)
        return service

    # ------------------------------------------------------------------ session
    def _session(self) -> Session:
        """The service's rule session, reset for one evaluation."""
        self._rule_session.reset()
        return self._rule_session

    def _fire(self, session: Session) -> int:
        fired = session.fire_all()
        self._m_firings.inc(fired)
        return fired

    # ------------------------------------------------------------------ transfers
    def submit_transfers(
        self,
        workflow: str,
        job: str,
        transfers: Iterable[dict],
        *,
        tids: Optional[Sequence[int]] = None,
    ) -> list[TransferAdvice]:
        """Evaluate a batch of transfer requests; return per-transfer advice.

        Each request dict needs ``lfn``, ``src_url``, ``dst_url``,
        ``nbytes``; optional ``streams`` (else the configured default),
        ``priority`` and ``cluster`` (defaults to the requesting job id,
        which is the Pegasus cluster identity for clustered staging jobs).

        ``tids`` lets a router (sharded deployments) pre-assign globally
        unique transfer ids, one per request in order; the caller is then
        responsible for any priority pre-sort.  Without it the service
        allocates ids from its own counter.
        """
        specs = list(transfers)
        self._maybe_reap()
        self._m_batch["transfers"].observe(len(specs))
        with self._call(
            "submit_transfers", self._m_transfers["requests"],
            workflow=workflow, job=job, batch=len(specs),
        ) as closing:
            batch = self._next_batch()
            session = self._session()
            collector = session.firing_listener = FiringCollector()
            before = ledger_snapshot(self.memory)
            lease = (
                None
                if self.config.lease_seconds is None
                else self.clock() + self.config.lease_seconds
            )
            if tids is None:
                if self.config.order_by == "priority":
                    specs.sort(key=lambda s: -int(s.get("priority", 0)))
            else:
                # Externally assigned ids (a shard router allocates globally):
                # the caller pre-sorted the batch; keep the counter monotonic
                # past the highest id so local and external allocation never
                # collide.
                tids = list(tids)
                if len(tids) != len(specs):
                    raise ValueError(
                        f"tids length {len(tids)} does not match batch size {len(specs)}"
                    )
                if tids:
                    self._tid_last = max(self._tid_last, max(tids))
            # Everything a bad spec can raise on happens before the first
            # insert, so a failed call strands no fact of the batch in live
            # memory that the aborted journal transaction never saw.
            facts: list[TransferFact] = []
            selected_sources: dict[int, dict] = {}
            for index, spec in enumerate(specs):
                # Allocate the tid before touching the spec: a malformed spec
                # burns its tid (the journal already saw the counter advance).
                tid = self._next_tid() if tids is None else int(tids[index])
                src_url = spec["src_url"]
                if self.catalog is not None:
                    # Replica selection happens *before* the fact exists, so
                    # grouping, thresholds, and stream allocation all see the
                    # true source host pair, not the requested origin's.
                    chosen = self.catalog.select_source(
                        spec["lfn"], spec["dst_url"], src_url
                    )
                    if chosen is not None:
                        src_url = chosen.url
                        selected_sources[tid] = {
                            "requested_src": spec["src_url"],
                            "selected_src": src_url,
                            "site": self.catalog.site_of_url(src_url),
                        }
                facts.append(TransferFact(
                    tid=tid,
                    workflow=workflow,
                    job=job,
                    lfn=spec["lfn"],
                    src_url=src_url,
                    dst_url=spec["dst_url"],
                    nbytes=float(spec.get("nbytes", 0.0)),
                    requested_streams=spec.get("streams"),
                    priority=int(spec.get("priority", 0)),
                    cluster=spec.get("cluster", job),
                    batch=batch,
                ))
            for fact in facts:
                if fact.tid in selected_sources:
                    self.catalog.touch(fact.src_url, self.clock())
                    self._m_catalog["selected"].inc()
                session.insert(fact)
            fired = self._fire(session)

            advice: list[TransferAdvice] = []
            actions: dict[str, int] = {}
            for fact in facts:
                if not self.memory.contains(fact):  # pragma: no cover - defensive
                    continue
                action = _ADVICE_OF_STATUS.get(fact.status, "skip")
                actions[action] = actions.get(action, 0) + 1
                item = TransferAdvice(
                    tid=fact.tid,
                    lfn=fact.lfn,
                    src_url=fact.src_url,
                    dst_url=fact.dst_url,
                    nbytes=fact.nbytes,
                    action=action,
                    reason=fact.reason,
                )
                advice.append(item)
                if action == "transfer":
                    item.streams = fact.allocated_streams or fact.requested_streams or 1
                    item.group_id = fact.group_id or 0
                    item.priority = fact.priority
                    item.lease_deadline = lease
                    self.memory.update(fact, status="in_progress", lease_deadline=lease)
                    if self.adaptive is not None:
                        # Open the pair's measurement epoch at first submission
                        # so the first completion has a meaningful elapsed time.
                        self.adaptive.threshold_for(
                            fact.src_host, fact.dst_host, self.clock()
                        )
                    continue
                if action == "wait":
                    item.wait_for = fact.wait_for
                self.memory.retract(fact)
                if self.catalog is not None and fact.status == "skip_staged":
                    # A catalog hit: the dedup rules skipped a re-stage of a
                    # file the catalog still advertises — refresh its LRU
                    # clock so eviction prefers genuinely cold replicas.
                    if self.catalog.touch(fact.dst_url, self.clock()):
                        self._m_catalog["hits"].inc()

            # One count of the advice feeds the outcome counters and the span.
            outcomes = [("submitted", len(facts))]
            outcomes += [(_EVENT_OF_ACTION[action], n) for action, n in actions.items()]
            for event, n in outcomes:
                self._m_transfers[event].inc(n)
            if self.hooks.tracer.enabled:
                closing.update(
                    rule_firings=fired, advice=dict(sorted(actions.items())), batch_id=batch,
                )

            after = ledger_snapshot(self.memory)
            by_tid = {item.tid: item for item in advice}
            firings_of, _ = index_firings(collector.firings)
            for fact in facts:
                item = by_tid.get(fact.tid)
                if item is None:  # pragma: no cover - defensive
                    continue
                record = transfer_record(
                    fact,
                    item,
                    firings_of.get(fact.tid, []),
                    before,
                    after,
                    batch=batch,
                    shard=self.shard_index,
                )
                if self.catalog is not None:
                    # Cite catalog hits and replica selection in meta: meta is
                    # excluded from the digest, so records stay
                    # digest-comparable whether or not it is enabled.
                    info: dict = {}
                    if fact.status == "skip_staged":
                        hit = self.catalog.replica_at(fact.dst_url)
                        info["hit"] = hit is not None
                        info["site"] = None if hit is None else hit.site
                    if fact.tid in selected_sources:
                        info["selected"] = selected_sources[fact.tid]
                    if info:
                        record["meta"]["catalog"] = info
                self._record_decision(record)
            self._commit_journal()
            return order_advice(advice, self.config.order_by)

    def _record_decision(self, record: dict) -> None:
        """Retain a decision record and journal it with this transaction."""
        self.decisions.add(record)
        if self.journal is not None:
            self.journal.record_decision(record)

    def complete_transfers(
        self, done: Iterable[int] = (), failed: Iterable[int] = ()
    ) -> dict:
        """Report transfer outcomes; frees streams and updates resources."""
        self._maybe_reap()
        done, failed = list(done), list(failed)
        with self._call(
            "complete_transfers", done=len(done), failed=len(failed)
        ) as closing:
            session = self._session()
            matched = 0
            done_matched: list[int] = []
            failed_matched: list[int] = []

            def in_progress(tid: int) -> Optional[TransferFact]:
                for f in self.memory.lookup(TransferFact, tid=tid):
                    if f.status == "in_progress":
                        return f
                return None

            completed_pairs: list[tuple[str, str, float]] = []
            staged_done: list[tuple[str, str, float]] = []
            for tid in done:
                fact = in_progress(tid)
                if fact is not None:
                    completed_pairs.append(
                        (fact.src_host, fact.dst_host, fact.nbytes)
                    )
                    staged_done.append((fact.lfn, fact.dst_url, fact.nbytes))
                    session.update(fact, status="done")
                    self._done_tids.add(tid)
                    done_matched.append(tid)
                    matched += 1
            for tid in failed:
                fact = in_progress(tid)
                if fact is not None:
                    session.update(fact, status="failed")
                    self._failed_tids.add(tid)
                    failed_matched.append(tid)
                    matched += 1
            fired = self._fire(session)
            if self.adaptive is not None and completed_pairs:
                self._adapt_thresholds(completed_pairs)
            evicted: list[dict] = []
            if self.catalog is not None:
                now = self.clock()
                for lfn, dst_url, nbytes in staged_done:
                    self.catalog.register(lfn, dst_url, nbytes, now)
                evicted = self._run_eviction_sweep(now)
            self._commit_journal(done=done_matched, failed=failed_matched)
            if self.hooks.tracer.enabled:
                closing.update(acknowledged=matched, rule_firings=fired)
            result = {"acknowledged": matched}
            if self.catalog is not None:
                # The caller (transfer tool / shard router) owns the disk:
                # it must delete evicted replicas from its simulated storage.
                result["evicted"] = evicted
            return result

    def _run_eviction_sweep(self, now: float) -> list[dict]:
        """Drive the eviction pack once and drain the selected victims.

        Mirrors ``_reap``: time enters as a transient
        :class:`~repro.datacatalog.model.EvictionSweepFact`, the pack
        selects and retracts victims, and the sweep retires itself.
        Runs only when some site is actually over budget, so the common
        under-budget completion pays nothing.  One provenance record is
        minted per victim, attributed by the replica/resource refs the
        sweep's firings touched (victims carry no tid/cid).
        """
        assert self.catalog is not None
        if not self.catalog.over_budget_sites():
            return []
        session = self._session()
        collector = session.firing_listener = FiringCollector()
        session.insert(EvictionSweepFact(now))
        self._fire(session)
        evicted = [dict(v) for v in self.globals.pop(EVICTED_GLOBAL, [])]
        if evicted:
            self._m_catalog["evictions"].inc(len(evicted))
        for victim in evicted:
            refs = frozenset((
                f"replica:{victim['lfn']}@{victim['url']}",
                f"staged:{victim['lfn']}@{victim['url']}",
            ))
            self._record_decision(
                eviction_record(
                    victim,
                    attribute_firings_by_ref(collector.firings, refs),
                    shard=self.shard_index,
                )
            )
        return evicted

    def _adapt_thresholds(self, completed: list[tuple[str, str, float]]) -> None:
        """Feed completions to the adaptive controller; apply decisions to
        the host-pair facts the greedy rules enforce."""
        now = self.clock()
        for src_host, dst_host, nbytes in completed:
            decided = self.adaptive.observe(src_host, dst_host, nbytes, now)
            if decided is None:
                continue
            for pair in self.memory.lookup(
                HostPairFact, src_host=src_host, dst_host=dst_host
            ):
                self.memory.update(pair, threshold=decided)

    # ------------------------------------------------------------------ cleanups
    def submit_cleanups(
        self,
        workflow: str,
        job: str,
        files: Iterable[tuple[str, str]],
        *,
        cids: Optional[Sequence[int]] = None,
    ) -> list[CleanupAdvice]:
        """Evaluate cleanup (deletion) requests for (lfn, url) pairs.

        ``cids`` mirrors ``submit_transfers(tids=...)``: a shard router
        may pre-assign globally unique cleanup ids, one per file in order.
        """
        files = list(files)
        if cids is not None:
            cids = list(cids)
            if len(cids) != len(files):
                raise ValueError(
                    f"cids length {len(cids)} does not match batch size {len(files)}"
                )
            if cids:
                self._cid_last = max(self._cid_last, max(cids))
        self._maybe_reap()
        self._m_batch["cleanups"].observe(len(files))
        with self._call(
            "submit_cleanups", self._m_cleanups["requests"],
            workflow=workflow, job=job, batch=len(files),
        ) as closing:
            batch = self._next_batch()
            session = self._session()
            collector = session.firing_listener = FiringCollector()
            before = ledger_snapshot(self.memory, files)
            lease = (
                None
                if self.config.lease_seconds is None
                else self.clock() + self.config.lease_seconds
            )
            # Built before the first insert, like the transfer facts.
            facts = [
                CleanupFact(
                    cid=self._next_cid() if cids is None else int(cids[index]),
                    workflow=workflow, job=job, lfn=lfn,
                    url=url, batch=batch,
                )
                for index, (lfn, url) in enumerate(files)
            ]
            for fact in facts:
                session.insert(fact)
            fired = self._fire(session)

            advice = []
            approved = 0
            for fact in facts:
                if fact.status == "approved":
                    advice.append(
                        CleanupAdvice(cid=fact.cid, lfn=fact.lfn, url=fact.url,
                                      action="delete", reason=fact.reason,
                                      lease_deadline=lease)
                    )
                    self.memory.update(
                        fact, status="in_progress", lease_deadline=lease
                    )
                    approved += 1
                else:
                    advice.append(
                        CleanupAdvice(cid=fact.cid, lfn=fact.lfn, url=fact.url,
                                      action="skip", reason=fact.reason)
                    )
                    self.memory.retract(fact)
            # One count of the advice feeds the outcome counters and the span.
            outcomes = {"approved": approved, "skipped": len(facts) - approved}
            for event, n in (("submitted", len(facts)), *outcomes.items()):
                if n:
                    self._m_cleanups[event].inc(n)
            if self.hooks.tracer.enabled:
                closing.update(rule_firings=fired, **outcomes, batch_id=batch)
            after = ledger_snapshot(self.memory, files)
            by_cid = {item.cid: item for item in advice}
            _, firings_of = index_firings(collector.firings)
            for fact in facts:
                self._record_decision(
                    cleanup_record(
                        fact,
                        by_cid[fact.cid],
                        firings_of.get(fact.cid, []),
                        before,
                        after,
                        batch=batch,
                        shard=self.shard_index,
                    )
                )
            self._commit_journal()
            return advice

    def complete_cleanups(self, ids: Iterable[int]) -> dict:
        """Report finished deletions; drops resource state for those files."""
        self._maybe_reap()
        ids = set(ids)
        with self._call("complete_cleanups", ids=len(ids)) as closing:
            matched = 0
            in_progress = [
                fact
                for cid in ids
                for fact in self.memory.lookup(CleanupFact, cid=cid)
                if fact.status == "in_progress"
            ]
            # Oldest grant first, as a walk over every cleanup fact would
            # visit them: the journal records the retractions in order.
            in_progress.sort(key=self.memory.fid_of)
            for fact in in_progress:
                for resource in self.memory.lookup(StagedFileFact, dst_url=fact.url):
                    self.memory.retract(resource)
                if self.catalog is not None:
                    # The file is gone from disk; the catalog must stop
                    # advertising it (and release its site bytes).
                    self.catalog.unregister(fact.url)
                self.memory.retract(fact)
                matched += 1
            self._commit_journal()
            if self.hooks.tracer.enabled:
                closing["acknowledged"] = matched
            return {"acknowledged": matched}

    # ------------------------------------------------------------------ leases
    def _maybe_reap(self) -> None:
        """Throttled lease sweep piggy-backed on ordinary service calls."""
        if self.config.lease_seconds is None:
            return
        now = self.clock()
        if now < self._next_sweep:
            return
        self._next_sweep = now + self.config.lease_seconds / 4.0
        self._reap(now)

    def reap_expired(self, now: Optional[float] = None) -> dict:
        """Reap every in-progress grant whose lease deadline has passed.

        Expired transfers are marked failed — which releases their stream
        allocations on both the host-pair and cluster ledgers via the
        ordinary failure rules — and their ids enter the failed retention
        set so ``transfer_state`` answers ``"failed"``.  Expired cleanups
        are simply dropped.  Ignores the sweep-interval throttle.
        """
        if now is None:
            now = self.clock()
        return self._reap(float(now))

    def _reap(self, now: float) -> dict:
        with Envelope(
            counts=(self._m_calls["reap"], self._m_lease_sweeps),
            seconds=self._m_call_seconds["reap"], on_exit=self._end_transaction,
        ):
            session = self._session()
            session.insert(LeaseSweepFact(now))
            self._fire(session)
            reaped_tids = self.globals.pop("lease_reaped_transfers", [])
            reaped_cids = self.globals.pop("lease_reaped_cleanups", [])
            for tid in reaped_tids:
                self._failed_tids.add(tid)
            self._m_transfers["reaped"].inc(len(reaped_tids))
            self._m_cleanups["reaped"].inc(len(reaped_cids))
            self._commit_journal(failed=reaped_tids)
            if self.hooks.tracer.enabled and (reaped_tids or reaped_cids):
                # Only sweeps that actually reclaim something are traced
                # (an instant, not a span): the throttled no-op sweeps
                # would drown the timeline.
                self.hooks.tracer.instant(
                    "policy", "policy.lease_reap", track="policy",
                    transfers=len(reaped_tids), cleanups=len(reaped_cids),
                )
            return {"transfers": list(reaped_tids), "cleanups": list(reaped_cids)}

    # ------------------------------------------------------------------ reconcile
    def reconcile_staged(
        self, workflow: str, files: Iterable[tuple]
    ) -> dict:
        """Adopt files a client staged while the service was unreachable.

        A transfer tool running in degraded (policy-free) mode stages
        files without the service knowing; once the service is back the
        tool reports them here so the shared policy memory regains its
        resource facts — otherwise later workflows would re-transfer files
        that already exist, and cleanup could never delete them.

        ``files`` holds ``(lfn, url)`` or ``(lfn, url, nbytes)`` tuples;
        with the catalog enabled each adopted file is also registered as
        a replica (size 0 when the caller did not report one, so an
        unsized adoption can never push a site over budget).
        """
        with self._call("reconcile_staged", workflow=workflow) as closing:
            # A malformed entry raises here, before the first file changes.
            files = [(lfn, url, rest) for lfn, url, *rest in files]
            registered = joined = 0
            for lfn, url, rest in files:
                existing = None
                for r in self.memory.lookup(StagedFileFact, lfn=lfn, dst_url=url):
                    existing = r
                    break
                if existing is not None:
                    changes: dict = {}
                    if existing.status != "staged":
                        changes["status"] = "staged"
                    if workflow not in existing.users:
                        changes["users"] = existing.users | {workflow}
                    if changes:
                        self.memory.update(existing, **changes)
                    joined += 1
                else:
                    resource = StagedFileFact(
                        lfn=lfn, dst_url=url, owner_tid=0, workflow=workflow
                    )
                    self.memory.insert(resource)
                    self.memory.update(resource, status="staged")
                    registered += 1
                if self.catalog is not None:
                    self.catalog.register(
                        lfn, url, float(rest[0]) if rest else 0.0, self.clock()
                    )
            self._m_staged_reconciled.inc(registered + joined)
            self._commit_journal()
            if self.hooks.tracer.enabled:
                closing.update(registered=registered, joined=joined)
            return {"registered": registered, "joined": joined}

    # ------------------------------------------------------------------ queries
    def staging_state(self, lfn: str, dst_url: str) -> str:
        """``"staged"`` / ``"staging"`` / ``"unknown"`` for a file at a URL,
        or ``"deleting"`` while a granted delete of the URL is outstanding
        (a transfer into it is told to wait, and a waiter keeps polling)."""
        self._maybe_reap()
        for c in self.memory.lookup(CleanupFact, url=dst_url):
            if c.status == "in_progress":
                return "deleting"
        for r in self.memory.lookup(StagedFileFact, lfn=lfn, dst_url=dst_url):
            return r.status
        return "unknown"

    def transfer_state(self, tid: int) -> str:
        """``"in_progress"`` / ``"done"`` / ``"failed"`` / ``"unknown"``."""
        self._maybe_reap()
        for f in self.memory.lookup(TransferFact, tid=tid):
            return f.status
        if tid in self._done_tids:
            return "done"
        if tid in self._failed_tids:
            return "failed"
        return "unknown"

    def explain(self, tid: int) -> Optional[dict]:
        """The decision-provenance record for a transfer id.

        None when the id was never decided here, or the record aged out
        of the bounded log.
        """
        return self.decisions.transfer(int(tid))

    def decision_records(self) -> list[dict]:
        """All retained decision records, oldest first."""
        return self.decisions.records()

    # ------------------------------------------------------------------ catalog
    def _require_catalog(self) -> DataCatalog:
        if self.catalog is None:
            raise PolicyRefusedError(
                "the staged-data catalog is not enabled on this service"
            )
        return self.catalog

    def catalog_census(self) -> dict:
        """Canonical staged-data catalog state (replicas + site budgets).

        Sorted and JSON-able — the byte-identity witness for crash
        recovery and engine-equivalence checks.  Raises
        :exc:`PolicyRefusedError` when the catalog is disabled.
        """
        return self._require_catalog().census()

    def catalog_replicas(self, lfn: str) -> list[dict]:
        """Known replicas of ``lfn``, deterministically by (site, url)."""
        return [
            {
                "lfn": r.lfn,
                "site": r.site,
                "url": r.url,
                "nbytes": r.nbytes,
                "checksum": r.checksum,
                "pin_count": r.pin_count,
                "last_used": r.last_used,
            }
            for r in self._require_catalog().lookup(lfn)
        ]

    def set_site_capacity(
        self, site: str, capacity_bytes: Optional[float] = None
    ) -> dict:
        """Set (or lift, with ``None``) a site byte budget at runtime.

        Journaled like any admin mutation; an over-budget site is acted
        on by the next eviction sweep (the next transfer completion).
        """
        catalog = self._require_catalog()
        with self._transaction():
            catalog.set_site_capacity(site, capacity_bytes)
            self._commit_journal()
        fact = catalog.site_fact(site)
        return {
            "site": site,
            "capacity_bytes": None if fact is None else fact.capacity_bytes,
            "used_bytes": 0.0 if fact is None else fact.used_bytes,
        }

    def catalog_pin(self, url: str, pinned: bool = True) -> dict:
        """Pin (or unpin) the replica at ``url`` against eviction.

        Pins nest: each pin increments the replica's pin count, each
        unpin decrements it (never below zero), and the eviction pack
        only considers replicas at zero.  Journaled; raises ``KeyError``
        (one that is also a :exc:`PolicyRefusedError`) for an unknown url
        so a caller cannot silently "protect" a replica the catalog
        never registered.
        """
        catalog = self._require_catalog()
        with self._transaction():
            changed = catalog.pin(url) if pinned else catalog.unpin(url)
            if not changed:
                raise UnknownReplicaError(f"no catalog replica at {url!r}")
            self._commit_journal()
        replica = catalog.replica_at(url)
        return {"url": url, "pin_count": replica.pin_count}

    # ------------------------------------------------------------------ admin
    def deny_host(self, host: str, direction: str = "any", reason: str = "") -> None:
        """Administratively ban transfers involving ``host`` (access pack)."""
        if not self.config.access_control:
            raise PolicyRefusedError("access control is not enabled on this service")
        with self._transaction():
            self.memory.insert(HostDenialFact(host, direction, reason))
            self._commit_journal()

    def allow_host(self, host: str) -> int:
        """Lift all denials of ``host``; returns how many were removed."""
        with self._transaction():
            removed = 0
            for fact in list(self.memory.facts_of(HostDenialFact)):
                if fact.host == host:
                    self.memory.retract(fact)
                    removed += 1
            self._commit_journal()
            return removed

    def set_quota(self, workflow: str, max_bytes: float) -> None:
        """Set (or replace) a workflow's staging byte quota (access pack)."""
        if not self.config.access_control:
            raise PolicyRefusedError("access control is not enabled on this service")
        with self._transaction():
            for fact in list(self.memory.facts_of(WorkflowQuotaFact)):
                if fact.workflow == workflow:
                    self.memory.retract(fact)
            self.memory.insert(WorkflowQuotaFact(workflow, max_bytes))
            self._commit_journal()

    # ------------------------------------------------------------------ tenants
    def register_tenant(
        self,
        tenant: str,
        weight: float = 1.0,
        priority_class: int = 0,
        max_bytes: Optional[float] = None,
        max_streams: Optional[int] = None,
        max_concurrent: Optional[int] = None,
    ) -> None:
        """Register (or replace) a tenant; ledgers survive a replacement.

        The tenant fact is journaled like any other policy memory, so a
        recovered service reproduces the same budgets — and therefore the
        same admission decisions — as the crashed one.
        """
        with self._transaction():
            fact = TenantFact(
                tenant,
                weight=weight,
                priority_class=priority_class,
                max_bytes=max_bytes,
                max_streams=max_streams,
                max_concurrent=max_concurrent,
            )
            for existing in self.memory.lookup(TenantFact, tenant=tenant):
                fact.inflight_streams = existing.inflight_streams
                fact.bytes_staged = existing.bytes_staged
                self.memory.retract(existing)
            self.memory.insert(fact)
            self._commit_journal()

    def unregister_tenant(self, tenant: str) -> int:
        """Remove a tenant and its workflow bindings; returns removals."""
        with self._transaction():
            removed = 0
            for fact in self.memory.lookup(TenantFact, tenant=tenant):
                self.memory.retract(fact)
                removed += 1
            for binding in list(self.memory.facts_of(TenantWorkflowFact)):
                if binding.tenant == tenant:
                    self.memory.retract(binding)
                    removed += 1
            self._commit_journal()
            return removed

    def bind_workflow(self, workflow: str, tenant: str) -> None:
        """Bind a workflow to a registered tenant (replaces any binding)."""
        if not self.memory.lookup(TenantFact, tenant=tenant):
            raise PolicyRefusedError(f"tenant {tenant!r} is not registered")
        with self._transaction():
            for binding in self.memory.lookup(TenantWorkflowFact, workflow=workflow):
                self.memory.retract(binding)
            self.memory.insert(TenantWorkflowFact(workflow, tenant))
            self._commit_journal()

    def tenants(self) -> list[dict]:
        """Census of registered tenants (sorted by id), ledgers included."""
        bound: dict[str, list[str]] = {}
        for binding in self.memory.facts_of(TenantWorkflowFact):
            bound.setdefault(binding.tenant, []).append(binding.workflow)
        return [
            {
                "tenant": fact.tenant,
                "weight": fact.weight,
                "priority_class": fact.priority_class,
                "max_bytes": fact.max_bytes,
                "max_streams": fact.max_streams,
                "max_concurrent": fact.max_concurrent,
                "inflight_streams": fact.inflight_streams,
                "bytes_staged": fact.bytes_staged,
                "workflows": sorted(bound.get(fact.tenant, [])),
            }
            for fact in sorted(
                self.memory.facts_of(TenantFact), key=lambda f: f.tenant
            )
        ]

    # ------------------------------------------------------------------ workflows
    def register_priorities(self, workflow: str, priorities: dict) -> int:
        """Register structure-based job priorities for a workflow."""
        with self._transaction():
            count = 0
            for job, priority in priorities.items():
                self.memory.insert(JobPriorityFact(workflow, job, priority))
                count += 1
            self._commit_journal()
            return count

    def unregister_workflow(self, workflow: str, retain_staged: bool = False) -> None:
        """Drop a finished workflow's interest in staged files/priorities.

        A staged file whose last user departs is an orphaned resource: no
        workflow can ever detach or delete it again, so by default it is
        retracted instead of lingering in policy memory forever.  Pass
        ``retain_staged=True`` when the files deliberately stay on disk
        (e.g. an ensemble without cleanup whose later members re-use them);
        retained facts keep their empty ``users`` set until a cleanup or
        a later sharing workflow picks them up.

        Files the staged-data catalog tracks as replicas are always
        retained: the catalog deliberately kept them on disk (retained
        cleanups), so later workflows must still find the resource fact
        and dedup against it.  Their deletion path is eviction, which
        retracts replica and resource facts together.
        """
        with self._transaction():
            for r in list(self.memory.facts_of(StagedFileFact)):
                if workflow in r.users:
                    remaining = r.users - {workflow}
                    retain = retain_staged or (
                        self.catalog is not None
                        and self.catalog.replica_at(r.dst_url) is not None
                    )
                    if remaining or retain:
                        self.memory.update(r, users=remaining)
                    else:
                        self.memory.retract(r)
            for p in list(self.memory.facts_of(JobPriorityFact)):
                if p.workflow == workflow:
                    self.memory.retract(p)
            for binding in list(self.memory.lookup(TenantWorkflowFact, workflow=workflow)):
                self.memory.retract(binding)
            # Host-pair grouping state is demand-created per (src, dst);
            # once nothing references a pair it can never release streams
            # or regain users on its own, so an idle pair left behind is a
            # permanent leak (one fact per distinct pair, forever).  Drop
            # pairs with zero allocation and no transfer still in flight
            # on them; a later transfer simply re-creates the pair (the
            # adaptive controller keeps per-pair threshold state itself).
            live_pairs = {
                (t.src_host, t.dst_host)
                for t in self.memory.facts_of(TransferFact)
            }
            for pair in list(self.memory.facts_of(HostPairFact)):
                if (
                    pair.allocated == 0
                    and (pair.src_host, pair.dst_host) not in live_pairs
                ):
                    self.memory.retract(pair)
            for alloc in list(self.memory.facts_of(ClusterAllocationFact)):
                if (
                    alloc.allocated == 0
                    and (alloc.src_host, alloc.dst_host) not in live_pairs
                ):
                    self.memory.retract(alloc)
            self._commit_journal()

    # ------------------------------------------------------------------ status
    def snapshot(self) -> dict:
        """Service status: config, memory census, counters, allocations.

        ``metrics`` is the counter census (``repro_policy_*``, rendered
        from the registry).
        """
        pairs = {
            f"{p.src_host}->{p.dst_host}": {
                "group_id": p.group_id,
                "allocated": p.allocated,
                "threshold": p.threshold,
            }
            for p in self.memory.facts_of(HostPairFact)
        }
        self._refresh_census_metrics()
        self._refresh_tenant_metrics()
        return {
            "policy": self.config.policy,
            "default_streams": self.config.default_streams,
            "max_streams": self.config.max_streams,
            "memory": self.memory.snapshot(),
            "host_pairs": pairs,
            "tenants": self.tenants(),
            "catalog": None if self.catalog is None else self.catalog.census(),
            "metrics": self.metrics.to_dict(),
        }

    def refresh_metrics(self) -> None:
        """Bring the scrape-time gauges up to date: id high-water marks,
        what the service holds, tenant ledgers and the attached profiler's
        per-rule tallies."""
        self._refresh_census_metrics()
        self._refresh_tenant_metrics()
        self._refresh_profiler_metrics()

    def metrics_text(self) -> str:
        """The registry rendered in Prometheus text exposition format."""
        self.refresh_metrics()
        return self.metrics.render()
