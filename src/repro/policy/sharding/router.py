"""The consistent-hash router: N policy shards behind one service facade.

:class:`ShardedPolicyService` implements the whole controller-visible
surface of :class:`~repro.policy.service.PolicyService` — the transfer
tool, cleanup tool, REST controllers, DES experiments, and the
in-process client all work against it unchanged.  Every shard is an
in-process service behind a :class:`~repro.policy.sharding.shard.ShardHandle`.
Internally the router:

* partitions transfer batches across shards by (source, destination)
  host pair, and cleanups by destination URL
  (:mod:`~repro.policy.sharding.hashring`), and calls the shards'
  sub-batches serially, in shard order;
* keeps an **ownership directory**: once a file (lfn, dst_url) has been
  evaluated on a shard, every later request for that file — whatever
  its source pair — forwards to that home shard, so refcounts and
  dedup state for one file live in exactly one working memory;
* allocates transfer/cleanup ids globally (shards receive them
  pre-assigned) and renumbers group ids canonically in tid order, so
  the merged advice is **byte-identical** to an unsharded service;
* mirrors the single service's throttled lease sweep at router level
  (shard-local sweeps are disabled) so lease reaping happens at the
  same simulated instants;
* wraps every shard call in the shard's circuit breaker; a dead,
  partitioned, or breaker-open shard degrades *only its own keyspace*:
  transfers get policy-free "transfer" advice (mirroring the transfer
  tool's own degraded mode), cleanups get conservative "skip" advice,
  queries answer ``"unknown"``, and admin traffic plus completion
  reports for that shard are queued on its
  :class:`~repro.policy.sharding.shard.ShardHandle`, which delivers them
  — in order — before the next call the shard serves, whether a
  partition healed, a slowdown ended, or
  :meth:`ShardedPolicyService.recover_shard` replayed its journal.

See ``docs/sharding.md`` for the ownership protocol and the failure
matrix (including the per-shard budget caveats for workflow quotas and
tenant aggregate caps).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Iterable, Iterator, List, Optional, Tuple,
)

from repro.net.urls import parse_url
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import as_tracer

from repro.policy.client import CircuitBreaker
from repro.policy.controller import ROUTES, Route
from repro.policy.model import CleanupAdvice, PolicyConfig, TransferAdvice
from repro.policy.provenance import (
    DecisionLog,
    degraded_cleanup_record,
    degraded_record,
    rewrite_group_id,
)
from repro.policy.service import UnknownReplicaError, order_advice
from repro.policy.sharding.hashring import HashRing, pair_key, url_key
from repro.policy.sharding.shard import ShardHandle, ShardUnavailableError

__all__ = ["ShardedPolicyService"]


class _FleetMemoryView:
    """Aggregate read-only view over shard working memories.

    Supports the probes the rest of the codebase uses on
    ``service.memory`` (``len``, ``snapshot``, ``facts_of``); down
    shards contribute nothing.
    """

    def __init__(self, router: "ShardedPolicyService") -> None:
        self._router = router

    def __len__(self) -> int:
        return sum(self._router._gather("memory_len"))

    def snapshot(self) -> dict:
        census: dict[str, int] = {}
        for part in self._router._gather("memory_census"):
            for kind, count in part.items():
                census[kind] = census.get(kind, 0) + count
        return dict(sorted(census.items()))

    def facts_of(self, fact_type):
        facts = []
        for handle in self._router.shards:
            if handle.service is not None:
                facts.extend(handle.service.memory.facts_of(fact_type))
        return facts


class _Children(dict):
    """A one-label family's children by label value: each made on first
    use and kept, so an increment is a dict lookup, not a ``labels()``
    call."""

    def __init__(self, family):
        super().__init__()
        self.family = family

    def __missing__(self, value):
        (name,) = self.family.labelnames
        child = self[value] = self.family.labels(**{name: value})
        return child


class ShardedPolicyService:
    """N independent `PolicyService` shards behind one routing facade.

    Parameters
    ----------
    config:
        The (single) policy configuration; every shard runs it.
    num_shards:
        Fleet size.  ``1`` is valid and byte-identical to an unsharded
        service (useful as the benchmark baseline).
    clock:
        Shared clock (the DES passes simulated time); also drives the
        per-shard circuit breakers and lease sweeps.
    journal_root:
        When set, shard *i* journals under ``<journal_root>/shard-i`` and
        :meth:`recover_shard` replays it after a crash.  Without it,
        recovery restarts the shard empty (equivalence tests).
    breaker_threshold:
        Consecutive failures that open a shard's circuit breaker (it
        half-opens 60 s later; PR 2 semantics).
    """

    def __init__(
        self,
        config: Optional[PolicyConfig] = None,
        num_shards: int = 2,
        clock: Optional[Callable[[], float]] = None,
        journal_root=None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
        profiler=None,
        breaker_threshold: int = 3,
        snapshot_interval: int = 1000,
        fsync: bool = False,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.config = config if config is not None else PolicyConfig()
        self.clock = clock or time.monotonic
        self.tracer = as_tracer(tracer)
        self.num_shards = num_shards
        self.ring = HashRing(num_shards)

        self.shards: List[ShardHandle] = [
            ShardHandle(
                index, self.config, self.clock,
                CircuitBreaker(
                    failure_threshold=breaker_threshold,
                    reset_timeout=60.0,
                    clock=self.clock,
                ),
                journal_dir=(
                    None if journal_root is None
                    else Path(journal_root) / f"shard-{index}"
                ),
                snapshot_interval=snapshot_interval,
                fsync=fsync,
                tracer=tracer,
                profiler=profiler,
            )
            for index in range(num_shards)
        ]

        # ---------------- global allocation + canonical numbering ----------
        self._tid_last = 0
        self._cid_last = 0
        self._group_counter = 0
        #: canonical (src_host, dst_host) -> group id, mirroring HostPairFact
        self._pair_groups: dict[Tuple[str, str], int] = {}

        # ---------------- ownership directory ------------------------------
        #: (lfn, dst_url) -> home shard index
        self._owner: dict[Tuple[str, str], int] = {}
        #: dst_url -> home shard index (cleanup routing; first writer wins)
        self._url_owner: dict[str, int] = {}

        # ---------------- id maps (bounded, oldest id evicted first) --------
        self._id_retention = max(int(self.config.completed_tid_retention), 1000) * 2
        #: tid -> (home shard, canonical group id stamped on the merged
        #: advice, or None) for every shard-evaluated transfer
        self._tids: OrderedDict[int, Tuple[int, Optional[int]]] = OrderedDict()
        #: cid -> (home shard, url of an outstanding delete, or None once
        #: it completed, was reaped, or was never a delete)
        self._cids: OrderedDict[int, Tuple[int, Optional[str]]] = OrderedDict()

        # ---------------- degraded mode ------------------------------------
        #: tid -> (workflow, lfn, dst_url, home shard) for policy-free grants
        self._degraded_tids: OrderedDict[int, Tuple[str, str, str, int]] = OrderedDict()
        #: router-minted synthetic records for degraded advice — the home
        #: shard never saw those ids, so the router is their only witness
        self._decisions = DecisionLog(self.config.decision_log_cap)

        # ---------------- router-mirrored lease sweep -----------------------
        self._next_sweep = float("-inf")

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._init_metrics()

    if TYPE_CHECKING:  # the generated broadcasts, for the type checker only

        def __getattr__(self, op: str) -> Callable[..., Any]: ...

    # ------------------------------------------------------------------ metrics
    def _init_metrics(self) -> None:
        m = self.metrics
        # hot-path children by label value, kept once made (on first use,
        # so the exported text lists only the values seen)
        self._m_requests = m.counter(
            "repro_policy_router_requests_total",
            "Requests handled by the shard router",
            labelnames=("call",),
        )
        self._m_dispatch = m.counter(
            "repro_policy_router_shard_dispatch_total",
            "Sub-batches dispatched per shard",
            labelnames=("shard",),
        )
        self._m_degraded = m.counter(
            "repro_policy_router_degraded_total",
            "Requests served degraded because a shard was unavailable",
            labelnames=("kind",),
        )
        self._requests = _Children(self._m_requests)
        self._dispatches = _Children(self._m_dispatch)
        self._degraded = _Children(self._m_degraded)
        self._m_breaker_state = m.gauge(
            "repro_policy_client_breaker_state",
            "Per-shard circuit breaker state (0=closed,1=half_open,2=open)",
            labelnames=("shard",),
        )
        self._m_breaker_transitions = m.counter(
            "repro_policy_client_breaker_transitions_total",
            "Per-shard circuit breaker state transitions",
            labelnames=("shard", "transition"),
        )
        self._m_shard_up = m.gauge(
            "repro_policy_shard_up",
            "1 when the shard is serving, 0 when down/partitioned/open",
            labelnames=("shard",),
        )
        self._m_owed = m.gauge(
            "repro_policy_router_pending_ops",
            "Operations buffered for a shard awaiting recovery",
            labelnames=("shard",),
        )
        self._m_recoveries = m.counter(
            "repro_policy_router_shard_recoveries_total",
            "Shard journal replays completed by the router",
            labelnames=("shard",),
        )
        self._breaker_exported: dict[Tuple[str, str], int] = {}

    def _refresh_health_metrics(self) -> None:
        for handle in self.shards:
            shard = str(handle.index)
            self._m_breaker_state.set(handle.breaker.state_code(), shard=shard)
            self._m_shard_up.set(1.0 if handle.healthy() else 0.0, shard=shard)
            self._m_owed.set(float(len(handle.owed)), shard=shard)
            for edge, count in handle.breaker.snapshot()["transitions"].items():
                key = (shard, edge)
                seen = self._breaker_exported.get(key, 0)
                if count > seen:
                    self._m_breaker_transitions.inc(
                        count - seen, shard=shard, transition=edge
                    )
                    self._breaker_exported[key] = count

    # ------------------------------------------------------------------ ids
    def _next_tid(self) -> int:
        self._tid_last += 1
        return self._tid_last

    def _next_cid(self) -> int:
        self._cid_last += 1
        return self._cid_last

    def _remember(self, table: OrderedDict, key, value) -> None:
        table[key] = value
        while len(table) > self._id_retention:
            table.popitem(last=False)

    def counters(self) -> dict:
        return {
            "tid": self._tid_last,
            "cid": self._cid_last,
            "group": self._group_counter,
        }

    # ------------------------------------------------------------------ envelope
    @contextmanager
    def _call(self, name: str, **span_args):
        """The envelope of one counted router call, shaped like
        ``PolicyService._call``: count it and, only while tracing, open a
        ``router.<name>`` span on the ``policy-router`` track.

        Yields a dict the body fills with the span's closing arguments.
        A call that raises closes its span with the error's type alone.
        """
        self._requests[name].inc()
        tracer = self.tracer
        span = None
        if tracer.enabled:
            span = tracer.begin(
                "policy", f"router.{name}", track="policy-router", **span_args
            )
        closing: dict = {}
        try:
            yield closing
        except BaseException as exc:
            closing = {"error": type(exc).__name__}
            raise
        finally:
            if span is not None:
                tracer.end(span, **closing)

    # ------------------------------------------------------------------ sweep
    def _maybe_reap(self) -> None:
        """Router-level mirror of the single service's throttled sweep."""

        if self.config.lease_seconds is None:
            return
        now = self.clock()
        if now < self._next_sweep:
            return
        self._next_sweep = now + self.config.lease_seconds / 4.0
        self._broadcast_reap(now)

    def _broadcast_reap(self, now: float) -> dict:
        reaped: dict[str, list] = {"transfers": [], "cleanups": []}
        for part in self._gather("reap_expired", now):
            reaped["transfers"].extend(part.get("transfers", ()))
            reaped["cleanups"].extend(part.get("cleanups", ()))
        for cid in reaped["cleanups"]:
            # A reaped delete is no longer outstanding: a late completion
            # acknowledges nothing, so it must not clear the url's owner.
            entry = self._cids.get(cid)
            if entry is not None:
                self._cids[cid] = (entry[0], None)
        reaped["transfers"].sort()
        reaped["cleanups"].sort()
        return reaped

    def reap_expired(self, now: Optional[float] = None) -> dict:
        if now is None:
            now = self.clock()
        return self._broadcast_reap(float(now))

    # ------------------------------------------------------------------ dispatch
    def _dispatch(self, name: str, calls: dict, owed: Optional[str] = None) -> list:
        """Run ``name`` with ``{shard: (args, kwargs)}``, serially in shard
        order; return ``[(shard, result), ...]``.

        A :class:`ShardUnavailableError` becomes a ``None`` result (the
        caller degrades that sub-batch) — unless the call is a report the
        shard is owed: then ``owed`` names its degraded kind, the call is
        queued on the shard's handle and the shard is left out of the
        results.  Any other exception is raised once every shard in
        ``calls`` has been called (the first one, in shard order).
        """

        results: list = []
        error: Optional[Exception] = None
        for shard in sorted(calls):
            args, kwargs = calls[shard]
            result = None
            try:
                result = self.shards[shard].call(name, *args, **kwargs)
            except ShardUnavailableError:
                if owed is not None:
                    self.shards[shard].owe(name, *args, **kwargs)
                    self._degraded[owed].inc()
                    continue
            except Exception as exc:  # noqa: BLE001 - re-raised below
                if error is None:
                    error = exc
            results.append((shard, result))
        if error is not None:
            raise error
        return results

    def _gather(self, name: str, *args) -> Iterator:
        """``name``'s answer from each shard that can give one, in shard
        order; down, partitioned and failing shards contribute nothing."""
        for handle in self.shards:
            if not handle.healthy():
                continue
            try:
                part = handle.call(name, *args)
            except ShardUnavailableError:
                continue
            yield part

    def _url_home(self, lfn: str, url: str, batch_local: dict) -> int:
        """A cleanup's or reconcile's shard: the file's owner, else the
        url's, else the batch's earlier pick, else the url ring."""
        shard = self._owner.get((lfn, url))
        if shard is None:
            shard = self._url_owner.get(url)
        if shard is None:
            shard = batch_local.get(url)
        if shard is None:
            shard = self.ring.node_for(url_key(url))
        return shard

    def _own(self, lfn: str, url: str, shard: int) -> None:
        """Record ``shard`` as the home of file ``(lfn, url)``."""
        self._owner[(lfn, url)] = shard
        self._url_owner.setdefault(url, shard)

    # ------------------------------------------------------------------ transfers
    def submit_transfers(
        self, workflow: str, job: str, transfers: Iterable[dict]
    ) -> list[TransferAdvice]:
        """Route a batch across shards; merge byte-identical advice."""

        specs = list(transfers)
        self._maybe_reap()
        with self._call(
            "submit_transfers", workflow=workflow, job=job, batch=len(specs)
        ) as closing:
            if self.config.order_by == "priority":
                # The single service pre-sorts the batch before assigning
                # tids; the router owns that sort now (shards are told to
                # keep external order).
                specs.sort(key=lambda s: -int(s.get("priority", 0)))

            # Route each spec: ownership directory first, else the pair
            # ring.  ``batch_local`` pins every later occurrence of a file
            # in this batch to the first occurrence's shard so in-batch
            # dedup fires exactly like the single service.
            per_shard: dict[int, list] = {}
            batch_local: dict[Tuple[str, str], int] = {}
            for spec in specs:
                key = (spec["lfn"], spec["dst_url"])
                # Every spec is parsed, routed by owner or not: a malformed
                # one raises before any shard grants streams to the batch.
                src_host, _ = parse_url(spec["src_url"])
                dst_host, _ = parse_url(spec["dst_url"])
                shard = self._owner.get(key)
                if shard is None:
                    shard = batch_local.get(key)
                if shard is None:
                    shard = self.ring.node_for(pair_key(src_host, dst_host))
                batch_local[key] = shard
                per_shard.setdefault(shard, []).append((self._next_tid(), spec))

            calls = {
                shard: ((workflow, job, [spec for _, spec in entries]),
                        {"tids": [tid for tid, _ in entries]})
                for shard, entries in per_shard.items()
            }
            for shard in calls:
                self._dispatches[shard].inc()
            merged: dict[int, TransferAdvice] = {}
            evaluated: dict[int, int] = {}  # tid -> shard that evaluated it
            for shard, result in self._dispatch("submit_transfers", calls):
                entries = per_shard[shard]
                if result is None:
                    # Shard unavailable: policy-free advice for just this
                    # sub-batch, mirroring the transfer tool's degraded mode.
                    self._degraded["transfers"].inc(len(entries))
                    for tid, spec in entries:
                        merged[tid] = self._degraded_advice(workflow, tid, spec, shard)
                    continue
                for item in result:
                    merged[item.tid] = item
                    evaluated[item.tid] = shard
                for _, spec in entries:
                    self._own(spec["lfn"], spec["dst_url"], shard)

            # Canonical group numbering: walk in tid (= submission) order
            # and mint/reuse pair group ids exactly where the single
            # service's GROUP_CREATE rule would (first executable transfer
            # of a pair).
            for tid in sorted(evaluated):
                item = merged[tid]
                group = None
                if item.action == "transfer":
                    src_host, _ = parse_url(item.src_url)
                    dst_host, _ = parse_url(item.dst_url)
                    pair = (src_host, dst_host)
                    group = self._pair_groups.get(pair)
                    if group is None:
                        self._group_counter += 1
                        group = self._pair_groups[pair] = self._group_counter
                    item.group_id = group
                self._remember(self._tids, tid, (evaluated[tid], group))

            advice = order_advice(list(merged.values()), self.config.order_by)
            if self.tracer.enabled:
                actions: dict[str, int] = {}
                for item in advice:
                    actions[item.action] = actions.get(item.action, 0) + 1
                closing.update(
                    shards=len(calls), degraded=len(merged) - len(evaluated),
                    advice=dict(sorted(actions.items())),
                )
        return advice

    def _degraded_advice(
        self, workflow: str, tid: int, spec: dict, shard_idx: int
    ) -> TransferAdvice:
        streams = spec.get("streams") or self.config.default_streams or 1
        self._remember(
            self._degraded_tids,
            tid,
            (workflow, spec["lfn"], spec["dst_url"], shard_idx),
        )
        self._decisions.add(degraded_record(
            tid, workflow, spec["lfn"], spec["dst_url"], shard=shard_idx,
            reason=f"shard {shard_idx} unavailable; policy-free advice",
        ))
        return TransferAdvice(
            tid=tid,
            lfn=spec["lfn"],
            src_url=spec["src_url"],
            dst_url=spec["dst_url"],
            nbytes=float(spec.get("nbytes", 0.0)),
            action="transfer",
            streams=int(streams),
            group_id=0,
            priority=int(spec.get("priority", 0)),
            reason=f"shard {shard_idx} unavailable; policy-free advice",
        )

    def complete_transfers(
        self, done: Iterable[int] = (), failed: Iterable[int] = ()
    ) -> dict:
        self._maybe_reap()
        done, failed = list(done), list(failed)
        with self._call("complete_transfers", done=len(done), failed=len(failed)):
            per_shard: dict[int, Tuple[list, list]] = {}
            acknowledged = 0
            for slot, tids in enumerate((done, failed)):
                for tid in tids:
                    entry = self._degraded_tids.pop(tid, None)
                    if entry is not None:
                        if slot == 0:
                            # The home shard never saw this grant: reconcile
                            # the staged file there (now, or once the shard
                            # can serve) so dedup/refcounts catch up.
                            wf, lfn, dst_url, shard = entry
                            self._own(lfn, dst_url, shard)
                            self._dispatch(
                                "reconcile_staged",
                                {shard: ((wf, [(lfn, dst_url)]), {})},
                                owed="reconciles",
                            )
                        acknowledged += 1
                        continue
                    home = self._tids.get(tid)
                    if home is not None:
                        per_shard.setdefault(home[0], ([], []))[slot].append(tid)

            calls = {
                shard: ((), {"done": ids[0], "failed": ids[1]})
                for shard, ids in per_shard.items()
            }
            evicted: list[dict] = []
            # With no shard to ask (empty or unknown ids) a catalog-enabled
            # fleet still answers like the single service: no victims.
            catalog_answered = not calls and self.config.catalog is not None
            # A report the shard cannot take now is owed to it: it frees the
            # same streams/resources once the shard serves again.
            for _, result in self._dispatch("complete_transfers", calls, owed="completions"):
                acknowledged += result.get("acknowledged", 0)
                if "evicted" in result:
                    catalog_answered = True
                    evicted.extend(result["evicted"])
            response: dict = {"acknowledged": acknowledged}
            if catalog_answered:
                # Merge per-shard eviction victims in a shard-count-independent
                # order (per-shard interleavings are not comparable across
                # fleet sizes, same as decision_records).
                evicted.sort(key=lambda v: (v["site"], v["lfn"], v["url"]))
                response["evicted"] = evicted
            return response

    # ------------------------------------------------------------------ cleanups
    def submit_cleanups(
        self, workflow: str, job: str, files: Iterable[tuple[str, str]]
    ) -> list[CleanupAdvice]:
        files = [(lfn, url) for lfn, url in files]
        self._maybe_reap()
        with self._call(
            "submit_cleanups", workflow=workflow, job=job, batch=len(files)
        ):
            # URLs being written by an in-flight degraded transfer: no shard
            # holds a fact proving deletion unsafe, so protect them here.
            degraded_urls = {
                dst_url for (_wf, _lfn, dst_url, _home)
                in self._degraded_tids.values()
            }
            merged: dict[int, CleanupAdvice] = {}
            cids = []
            per_shard: dict[int, list] = {}
            batch_local: dict[str, int] = {}
            for lfn, url in files:
                cid = self._next_cid()
                cids.append(cid)
                if url in degraded_urls:
                    merged[cid] = self._deferred_cleanup(
                        workflow, cid, lfn, url,
                        "degraded transfer in flight to this url; cleanup deferred",
                    )
                    continue
                shard = batch_local[url] = self._url_home(lfn, url, batch_local)
                per_shard.setdefault(shard, []).append((cid, lfn, url))

            calls = {
                shard: ((workflow, job, [(lfn, url) for _, lfn, url in entries]),
                        {"cids": [cid for cid, _, _ in entries]})
                for shard, entries in per_shard.items()
            }
            for shard in calls:
                self._dispatches[shard].inc()
            for shard, result in self._dispatch("submit_cleanups", calls):
                if result is None:
                    # A dead shard holds the refcounts that prove deletion
                    # is safe — the only safe degraded answer is "keep it".
                    for cid, lfn, url in per_shard[shard]:
                        merged[cid] = self._deferred_cleanup(
                            workflow, cid, lfn, url,
                            f"shard {shard} unavailable; cleanup deferred", shard,
                        )
                    continue
                for item in result:
                    merged[item.cid] = item
                    outstanding = item.url if item.action == "delete" else None
                    self._remember(self._cids, item.cid, (shard, outstanding))

            # The single service answers in request order.
            return [merged[cid] for cid in cids]

    def _deferred_cleanup(
        self, workflow: str, cid: int, lfn: str, url: str, reason: str,
        shard: Optional[int] = None,
    ) -> CleanupAdvice:
        """A conservative ``skip`` and its policy-free record: no shard
        could prove that deleting ``url`` is safe."""
        self._degraded["cleanups"].inc()
        self._decisions.add(degraded_cleanup_record(
            cid, workflow, lfn, url, shard=shard, reason=reason,
        ))
        return CleanupAdvice(cid=cid, lfn=lfn, url=url, action="skip", reason=reason)

    def complete_cleanups(self, ids: Iterable[int]) -> dict:
        self._maybe_reap()
        ids = set(ids)
        with self._call("complete_cleanups", ids=len(ids)):
            # Only outstanding deletes are routed: a completed, reaped or
            # skipped cid has nothing left to acknowledge on its shard.
            per_shard: dict[int, list] = {}
            for cid in sorted(ids):
                home = self._cids.get(cid)
                if home is not None and home[1] is not None:
                    per_shard.setdefault(home[0], []).append((cid, home[1]))
            calls = {
                shard: (([cid for cid, _ in entries],), {})
                for shard, entries in per_shard.items()
            }
            acknowledged = 0
            cleaned_urls: set[str] = set()
            for shard, result in self._dispatch("complete_cleanups", calls, owed="completions"):
                acknowledged += result.get("acknowledged", 0)
                for cid, url in per_shard[shard]:
                    cleaned_urls.add(url)
                    self._cids[cid] = (shard, None)
            if cleaned_urls:
                # complete_cleanups retracts every staged fact at the URL,
                # so the directory forgets the whole URL too.
                self._owner = {
                    key: value
                    for key, value in self._owner.items()
                    if key[1] not in cleaned_urls
                }
                for url in cleaned_urls:
                    self._url_owner.pop(url, None)
            return {"acknowledged": acknowledged}

    # ------------------------------------------------------------------ queries
    def staging_state(self, lfn: str, dst_url: str) -> str:
        self._maybe_reap()
        with self._call("staging_state"):
            shard_idx = self._owner.get((lfn, dst_url))
            if shard_idx is not None:
                try:
                    return self.shards[shard_idx].call("staging_state", lfn, dst_url)
                except ShardUnavailableError:
                    self._degraded["queries"].inc()
                    return "unknown"
            for state in self._gather("staging_state", lfn, dst_url):
                if state != "unknown":
                    return state
            return "unknown"

    def transfer_state(self, tid: int) -> str:
        self._maybe_reap()
        with self._call("transfer_state"):
            home = self._tids.get(tid)
            if home is None:
                return "in_progress" if tid in self._degraded_tids else "unknown"
            try:
                return self.shards[home[0]].call("transfer_state", tid)
            except ShardUnavailableError:
                self._degraded["queries"].inc()
                return "unknown"

    def explain(self, tid: int) -> Optional[dict]:
        """The decision record for transfer ``tid``, shard-independent.

        Shard-evaluated transfers are fetched from their home shard with
        the shard-local group id rewritten to the router's canonical
        numbering (and the digest recomputed), so the answer is
        byte-identical to an unsharded service's.  Degraded grants answer
        with the router's synthetic policy-free record.  ``None`` when
        the tid is unknown or aged out, or the shard is unavailable.
        """

        self._maybe_reap()
        with self._call("explain"):
            tid = int(tid)
            synthetic = self._decisions.transfer(tid)
            if synthetic is not None:
                return synthetic
            home = self._tids.get(tid)
            if home is None:
                return None
            try:
                record = self.shards[home[0]].call("explain", tid)
            except ShardUnavailableError:
                self._degraded["queries"].inc()
                return None
            return None if record is None else self._canonical_record(record)

    def decision_records(self) -> list[dict]:
        """Fleet decision log: every live shard's records plus synthetics.

        Returned in a deterministic, shard-count-independent order —
        transfers by tid, then cleanups by cid (per-shard interleavings
        are not comparable across fleet sizes).  Down shards contribute
        nothing until they recover and replay their journals.
        """

        with self._call("decision_records"):
            records: list[dict] = []
            for part in self._gather("decision_records"):
                records.extend(self._canonical_record(r) for r in part)
            records.extend(self._decisions)
            transfers = [r for r in records if r.get("kind") == "transfer"]
            cleanups = [r for r in records if r.get("kind") != "transfer"]
            transfers.sort(key=lambda r: r["tid"])
            cleanups.sort(key=lambda r: r["cid"])
            return transfers + cleanups

    def _canonical_record(self, record: dict) -> dict:
        """Rewrite a shard record's group id to the canonical numbering."""

        if record.get("kind") == "transfer":
            home = self._tids.get(record.get("tid"))
            if home is not None and home[1] is not None:
                return rewrite_group_id(record, home[1])
        return record

    def reconcile_staged(
        self, workflow: str, files: Iterable[tuple]
    ) -> dict:
        with self._call("reconcile_staged", workflow=workflow):
            per_shard: dict[int, list] = {}
            # A malformed entry raises here, before any file is owned.
            files = [(lfn, url, *rest) for lfn, url, *rest in files]
            for lfn, url, *rest in files:
                # (lfn, url) or (lfn, url, nbytes): byte counts ride along
                # to the owning shard so its staged-data catalog can size
                # the adopted replica.  Ownership is keyed on (lfn, url).
                # The file's home is where its reconcile goes, delivered
                # now or owed.
                shard = self._url_home(lfn, url, {})
                self._own(lfn, url, shard)
                per_shard.setdefault(shard, []).append((lfn, url, *rest))
            calls = {
                shard: ((workflow, entries), {}) for shard, entries in per_shard.items()
            }
            registered = joined = 0
            for _, result in self._dispatch("reconcile_staged", calls, owed="reconciles"):
                registered += result.get("registered", 0)
                joined += result.get("joined", 0)
            return {"registered": registered, "joined": joined}

    # ------------------------------------------------------------------ admin
    def _broadcast(self, name: str, *args, **kwargs) -> list:
        """Apply an admin mutation on every shard; owe it to unavailable ones.

        Returns the live shards' results in shard order.  Domain errors
        (not availability) propagate from the first shard that raises
        them.  The operations :data:`ROUTES` marks ``broadcast`` are
        nothing but this call; their methods are generated below the
        class.
        """

        with self._call(name):
            results = []
            for handle in self.shards:
                try:
                    results.append(handle.call(name, *args, **kwargs))
                except ShardUnavailableError:
                    handle.owe(name, *args, **kwargs)
            return results

    def tenants(self) -> list[dict]:
        """Fleet tenant census: registration from any shard, ledgers summed."""

        merged: dict[str, dict] = {}
        for census in self._gather("tenants"):
            for row in census:
                entry = merged.get(row["tenant"])
                if entry is None:
                    merged[row["tenant"]] = dict(row)
                else:
                    entry["inflight_streams"] += row["inflight_streams"]
                    entry["bytes_staged"] += row["bytes_staged"]
                    entry["workflows"] = sorted(
                        set(entry["workflows"]) | set(row["workflows"])
                    )
        return [merged[tenant] for tenant in sorted(merged)]

    # ------------------------------------------------------------ data catalog
    def catalog_census(self) -> dict:
        """Fleet staged-data catalog census from every live shard.

        Replicas merge and re-sort by (lfn, site, url) so the census is
        shard-count-independent; site rows sum ``used_bytes`` across
        shards.  Each shard enforces its byte budget only over the
        replicas it owns (the same per-shard partitioning as tenant
        ledgers), so fleet-wide budgets are approximate: a site's summed
        usage can exceed one shard's capacity without any shard evicting.
        Down shards contribute nothing until they replay their journals.
        """

        with self._call("catalog_census"):
            replicas: list[dict] = []
            sites: dict[str, dict] = {}
            for census in self._gather("catalog_census"):
                replicas.extend(census.get("replicas", []))
                for row in census.get("sites", []):
                    entry = sites.get(row["site"])
                    if entry is None:
                        sites[row["site"]] = dict(row)
                    else:
                        entry["used_bytes"] += row["used_bytes"]
            replicas.sort(key=lambda r: (r["lfn"], r["site"], r["url"]))
            return {"replicas": replicas, "sites": [sites[s] for s in sorted(sites)]}

    def catalog_replicas(self, lfn: str) -> list[dict]:
        """Known replicas of ``lfn`` across live shards, by (site, url)."""

        with self._call("catalog_replicas"):
            replicas = [r for part in self._gather("catalog_replicas", lfn) for r in part]
            replicas.sort(key=lambda r: (r["site"], r["url"]))
            return replicas

    def set_site_capacity(self, site: str, capacity_bytes=None) -> dict:
        """Set one site's byte budget on every shard (owed to unavailable
        ones); the returned ``used_bytes`` sums live shards."""

        results = self._broadcast("set_site_capacity", site, capacity_bytes)
        used = sum(result.get("used_bytes", 0.0) for result in results)
        return {"site": site, "capacity_bytes": capacity_bytes, "used_bytes": used}

    def catalog_pin(self, url: str, pinned: bool = True) -> dict:
        """Pin/unpin the replica at ``url`` on its owning shard.

        The url directory names the home shard when the router saw the
        staging; otherwise every live shard is probed (exactly one holds
        the replica — registration follows transfer ownership).
        """

        with self._call("catalog_pin"):
            preferred = self._url_owner.get(url)
            order = [] if preferred is None else [preferred]
            order += [h.index for h in self.shards if h.index != preferred]
            missing: Optional[KeyError] = None
            for shard_idx in order:
                try:
                    return self.shards[shard_idx].call("catalog_pin", url, pinned)
                except ShardUnavailableError:
                    self._degraded["queries"].inc()
                    continue
                except KeyError as exc:
                    missing = exc
                    continue
            if missing is not None:
                raise missing
            raise UnknownReplicaError(f"no catalog replica at {url!r}")

    def unregister_workflow(self, workflow: str, retain_staged: bool = False) -> None:
        self._broadcast("unregister_workflow", workflow, retain_staged)
        self._prune_directory()

    def _prune_directory(self) -> None:
        """Forget files and pairs no shard holds state for any more.

        Entries homed on an unavailable shard are kept — the shard's
        journal still holds their facts, so they become live again after
        recovery.
        """

        survivors: set = set()
        pairs_alive: set = set()
        unknown_shards: set = set()
        for handle in self.shards:
            if not handle.healthy():
                unknown_shards.add(handle.index)
                continue
            try:
                survivors.update(tuple(key) for key in handle.call("staged_keys"))
                pairs_alive.update(tuple(p) for p in handle.call("host_pairs"))
            except ShardUnavailableError:
                unknown_shards.add(handle.index)
        self._owner = {
            key: shard_idx
            for key, shard_idx in self._owner.items()
            if key in survivors or shard_idx in unknown_shards
        }
        live_urls = {key[1] for key in self._owner}
        # A url keeps its home while a delete of it is outstanding there:
        # the next cleanup of the url must reach the shard that dedups it.
        live_urls.update(url for _shard, url in self._cids.values() if url is not None)
        self._url_owner = {
            url: shard_idx
            for url, shard_idx in self._url_owner.items()
            if url in live_urls or shard_idx in unknown_shards
        }
        if not unknown_shards:
            # Mirror the single service's host-pair GC: a pruned pair
            # re-mints a fresh group id on next use, exactly like a
            # re-created HostPairFact.
            self._pair_groups = {
                pair: group
                for pair, group in self._pair_groups.items()
                if pair in pairs_alive
            }

    # ------------------------------------------------------------------ faults
    def crash_shard(self, index: int) -> None:
        """Kill shard ``index`` (chaos entry point): memory lost, WAL kept."""

        self.shards[index].crash()
        self._refresh_health_metrics()

    def partition_shard(self, index: int, partitioned: bool = True) -> None:
        """(Un)partition shard ``index``: unreachable, memory intact."""

        self.shards[index].partitioned = bool(partitioned)
        if not partitioned:
            self.shards[index].breaker.record_success()
        self._refresh_health_metrics()

    def slow_shard(self, index: int, timeout_rate: float) -> None:
        """Make a fraction of shard ``index``'s calls time out."""

        self.shards[index].timeout_rate = float(timeout_rate)
        self._refresh_health_metrics()

    def recover_shard(self, index: int) -> dict:
        """Replay shard ``index`` from its journal and deliver what it is owed.

        The owed operations (admin mutations, completion reports,
        degraded-grant reconciles) are applied in their original arrival
        order, so the recovered shard converges to the state it would
        have reached without the outage.  A shard a partition still cuts
        off keeps them until the next call it serves.
        """

        handle = self.shards[index]
        replayed = handle.recover()
        self._m_recoveries.inc(shard=str(index))
        self._refresh_health_metrics()
        if self.tracer.enabled:
            self.tracer.instant(
                "policy", "router.shard_recovered", track="policy-router",
                shard=index, replayed=replayed,
            )
        return {"shard": index, "replayed": replayed, "pending": len(handle.owed)}

    @property
    def recovery_errors(self) -> list[str]:
        """Owed operations a shard refused when they were delivered."""
        return [error for handle in self.shards for error in handle.errors]

    # ------------------------------------------------------------------ status
    @property
    def memory(self) -> _FleetMemoryView:
        return _FleetMemoryView(self)

    def shard_health(self) -> list[dict]:
        return [handle.describe() for handle in self.shards]

    def snapshot(self) -> dict:
        self._refresh_health_metrics()
        census = self.memory.snapshot()
        pairs = {
            f"{src}->{dst}": {"group_id": group}
            for (src, dst), group in sorted(self._pair_groups.items())
        }
        return {
            "policy": self.config.policy,
            "default_streams": self.config.default_streams,
            "max_streams": self.config.max_streams,
            "shards": self.num_shards,
            "shard_health": self.shard_health(),
            "memory": census,
            "host_pairs": pairs,
            "tenants": self.tenants(),
            "counters": self.counters(),
            "pending_ops": {
                str(handle.index): len(handle.owed)
                for handle in self.shards
                if handle.owed
            },
            "metrics": self.metrics.to_dict(),
        }

    # ------------------------------------------------------------------ metrics text
    def metrics_text(self) -> str:
        """Router registry + every live shard's registry, each shard's
        samples led by a ``shard="i"`` label (a family renders once)."""

        self._refresh_health_metrics()
        live = [(h.index, h.service) for h in self.shards if h.service is not None]
        for _, service in live:
            service.refresh_metrics()
        return self.metrics.render(
            [(f'shard="{index}"', service.metrics) for index, service in live]
        )

    def close(self) -> None:
        for handle in self.shards:
            handle.close()


def _broadcast_method(route: Route):
    def method(self, *args, **kwargs):
        results = self._broadcast(route.op, *args, **kwargs)
        value = results[0] if results else None
        # With every shard down, a counting operation still answers 0.
        return (value or 0) if route.result else value

    method.__name__ = route.op
    method.__qualname__ = f"ShardedPolicyService.{route.op}"
    method.__doc__ = f"``PolicyService.{route.op}`` on every shard (owed to unavailable ones)."
    return method


for _route in ROUTES:
    if _route.broadcast:
        setattr(ShardedPolicyService, _route.op, _broadcast_method(_route))
