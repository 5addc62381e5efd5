"""The Pegasus Transfer Tool (PTT).

The PTT executes the transfer list of a data staging job.  With a policy
client configured (the paper's integration), it first submits the list to
the Policy Service, then acts on the returned advice:

* ``transfer`` items are executed **group by group in the advised order**;
  transfers sharing a group (same source/destination host pair) reuse one
  client session, paying the control-channel setup only once;
* ``skip`` items (duplicates / already-staged files) are not transferred;
* ``wait`` items poll the service until the file another workflow is
  staging becomes ``staged`` (done) or ``unknown`` (the other transfer
  failed — the item is resubmitted for fresh advice);
* after each transfer the PTT reports completion so the service frees the
  transfer's streams; on a failure it reports the failed id *and* the
  not-yet-started ids of the same advice batch, then raises so the
  workflow engine can retry the job (Pegasus' retries-on-failure).

Without a policy client the PTT behaves like default Pegasus: it performs
the transfers serially in list order with its configured default streams.

When the policy client raises :exc:`PolicyUnavailableError` (service
crashed, circuit open), the PTT **degrades** instead of wedging: the
job's remaining transfers run policy-free like default Pegasus, and the
staged files are remembered per workflow.  Once the service answers
again, the backlog is reconciled (``reconcile_staged``) before the next
advice request, so the shared policy memory regains the resource facts.
Completion reports that could not be delivered are queued and flushed the
same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.catalogs.replica import ReplicaCatalog
from repro.engine.storage import StorageTracker
from repro.net.gridftp import GridFTPClient, TransferError
from repro.net.urls import parse_url
from repro.planner.executable import ExecutableJob
from repro.policy.client import InProcessPolicyClient, PolicyUnavailableError
from repro.policy.model import TransferAdvice

__all__ = ["PegasusTransferTool", "StagingRecord"]


@dataclass
class StagingRecord:
    """Outcome of one staging job (for metrics)."""

    job_id: str
    t_start: float
    t_end: float = 0.0
    executed: int = 0
    skipped: int = 0
    waited: int = 0
    #: transfers executed policy-free because the service was unreachable
    degraded: int = 0
    bytes_moved: float = 0.0
    streams_used: list[int] = field(default_factory=list)


class PegasusTransferTool:
    """Executes staging jobs' transfers, optionally under policy advice.

    Parameters
    ----------
    gridftp:
        The transfer client bound to the simulated fabric.
    policy:
        ``InProcessPolicyClient`` or None (default-Pegasus behaviour).
    default_streams:
        Parallel streams requested per transfer (the experiments' x-axis).
    poll_interval:
        Seconds between staging-state polls while waiting on another
        workflow's in-flight transfer.
    replicas / host_site:
        When provided, successful transfers are registered in the replica
        catalog at the destination host's site.
    """

    def __init__(
        self,
        gridftp: GridFTPClient,
        policy: Optional[InProcessPolicyClient] = None,
        default_streams: int = 4,
        poll_interval: float = 5.0,
        max_wait: float = 24 * 3600.0,
        replicas: Optional[ReplicaCatalog] = None,
        host_site: Optional[dict[str, str]] = None,
        cluster_scope: str = "job",
        storage: Optional[StorageTracker] = None,
    ):
        if default_streams < 1:
            raise ValueError("default_streams must be >= 1")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if cluster_scope not in ("job", "workflow"):
            raise ValueError(f"cluster_scope must be 'job' or 'workflow', got {cluster_scope!r}")
        self.gridftp = gridftp
        self.env = gridftp.env
        self.policy = policy
        self.default_streams = default_streams
        self.poll_interval = poll_interval
        self.max_wait = max_wait
        self.replicas = replicas
        self.host_site = host_site or {}
        #: Balanced-policy cluster identity: the staging job ("job", the
        #: Pegasus clustered-job semantics) or the whole workflow
        #: ("workflow", per-workflow bandwidth reservation).
        self.cluster_scope = cluster_scope
        #: optional scratch-space accounting for transfer destinations
        self.storage = storage
        self.records: list[StagingRecord] = []
        #: append-only (lfn, dst_url) log of every file this tool staged —
        #: the ground truth the chaos experiments compare runs with
        self.staged_log: list[tuple[str, str]] = []
        #: append-only (lfn, url) log of catalog-evicted replicas this tool
        #: deleted on the service's behalf
        self.evicted_log: list[tuple[str, str]] = []
        #: files staged policy-free per workflow, awaiting reconciliation
        self._degraded_staged: dict[str, list[tuple[str, str, float]]] = {}
        #: completion reports the service never acknowledged
        self._unreported_done: list[int] = []
        self._unreported_failed: list[int] = []

    # ------------------------------------------------------------------ public
    def execute(self, workflow_id: str, job: ExecutableJob):
        """Process generator: run all transfers of a staging job."""
        record = StagingRecord(job_id=job.id, t_start=self.env.now)
        try:
            if self.policy is None:
                yield from self._execute_default(job, record)
            else:
                yield from self._execute_with_policy(workflow_id, job, record)
        finally:
            record.t_end = self.env.now
            self.records.append(record)
        return record

    # ----------------------------------------------------------------- default
    def _execute_default(self, job: ExecutableJob, record: StagingRecord):
        """Default Pegasus: serial transfers, list order, default streams."""
        track = f"ptt:{job.id}"
        streams = self.default_streams
        for spec in job.transfers:
            yield from self._transfer(
                spec.lfn, spec.src_url, spec.dst_url, spec.nbytes, streams, False, record,
                track=track, streams=streams, nbytes=spec.nbytes,
            )

    def _transfer(self, lfn, src_url, dst_url, nbytes, streams, session, record, /, **span_args):
        """Process generator: one transfer, traced as an ``xfer:<lfn>`` span.

        The span closes ``done`` or ``failed`` (the :exc:`TransferError`
        propagates); a finished transfer is counted in ``record`` and its
        file registered.  ``span_args`` open the span, in their order.
        """
        tracer = self.env.tracer
        span = tracer.begin("ptt", f"xfer:{lfn}", **span_args) if tracer.enabled else None
        try:
            rec = yield from self.gridftp.transfer(
                src_url, dst_url, nbytes, streams, session_established=session
            )
        except TransferError:
            if span is not None:
                tracer.end(span, outcome="failed")
            raise
        if span is not None:
            tracer.end(span, outcome="done")
        record.executed += 1
        record.bytes_moved += rec.nbytes
        record.streams_used.append(streams)
        self._register(lfn, dst_url, nbytes)

    # ------------------------------------------------------------- with policy
    def _execute_with_policy(self, workflow_id: str, job: ExecutableJob, record: StagingRecord):
        cluster = job.id if self.cluster_scope == "job" else workflow_id

        def spec_of(t) -> dict:
            return {
                "lfn": t.lfn,
                "src_url": t.src_url,
                "dst_url": t.dst_url,
                "nbytes": t.nbytes,
                "streams": self.default_streams,
                "priority": job.priority,
                "cluster": cluster,
            }

        tracer = self.env.tracer
        track = f"ptt:{job.id}"
        pending = [spec_of(t) for t in job.transfers]
        deadline = self.env.now + self.max_wait
        # Settle earlier degraded-mode debts before asking for new advice;
        # if the service is still down, stay policy-free for this job.
        if not (yield from self._reconcile(workflow_id)):
            yield from self._execute_degraded(workflow_id, pending, record, track)
            return
        while pending:
            if tracer.enabled:
                tracer.instant(
                    "ptt", "ptt.submit", track=track, transfers=len(pending)
                )
            try:
                advice = yield from self.policy.submit_transfers(
                    workflow_id, job.id, pending
                )
            except PolicyUnavailableError:
                if tracer.enabled:
                    tracer.instant(
                        "ptt", "ptt.degrade", track=track,
                        reason="policy_unavailable", transfers=len(pending),
                    )
                yield from self._execute_degraded(workflow_id, pending, record, track)
                return
            if tracer.enabled:
                actions: dict[str, int] = {}
                for a in advice:
                    actions[a.action] = actions.get(a.action, 0) + 1
                tracer.instant(
                    "ptt", "ptt.advised", track=track,
                    **dict(sorted(actions.items())),
                )
            denied = [a for a in advice if a.action == "deny"]
            if denied:
                # A denial means the data will never arrive: fail the job.
                raise TransferError(
                    f"transfer of {denied[0].lfn!r} denied by policy: "
                    f"{denied[0].reason}",
                    denied[0].src_url,
                    denied[0].dst_url,
                )
            to_execute = [a for a in advice if a.action == "transfer"]
            waits = [a for a in advice if a.action == "wait"]
            record.skipped += sum(1 for a in advice if a.action == "skip")

            yield from self._run_approved(to_execute, record, track)

            pending = []
            for item in waits:
                record.waited += 1
                wait_span = None
                if tracer.enabled:
                    wait_span = tracer.begin(
                        "ptt", f"wait:{item.lfn}", track=track,
                        wait_for=item.wait_for, reason=item.reason,
                    )
                try:
                    outcome = yield from self._await_staged(item, deadline)
                except PolicyUnavailableError:
                    # The service vanished mid-wait: stage the file
                    # ourselves rather than poll a dead endpoint.
                    if wait_span is not None:
                        tracer.end(wait_span, outcome="degraded")
                    yield from self._execute_degraded(workflow_id, [spec_of(item)], record, track)
                    continue
                except TransferError:
                    if wait_span is not None:
                        tracer.end(wait_span, outcome="timeout")
                    raise
                if wait_span is not None:
                    tracer.end(wait_span, outcome=outcome)
                if outcome == "resubmit":
                    pending.append(spec_of(item))

    def _run_approved(
        self, items: list[TransferAdvice], record: StagingRecord, track: str = "ptt"
    ):
        """Execute approved transfers group by group, sessions reused."""
        # Preserve the service's ordering; group boundaries reset sessions.
        # Group id 0 means "ungrouped" (the service assigned no host-pair
        # group), so consecutive 0s never share a session.
        current_group: Optional[int] = None
        for idx, item in enumerate(items):
            session_established = item.group_id != 0 and item.group_id == current_group
            current_group = item.group_id
            try:
                yield from self._transfer(
                    item.lfn, item.src_url, item.dst_url, item.nbytes, item.streams,
                    session_established, record,
                    track=track, tid=item.tid, streams=item.streams,
                    group=item.group_id, nbytes=item.nbytes,
                )
            except TransferError:
                # Tell the service about the failure and the abandoned rest
                # of the batch, then let the engine retry the whole job.
                abandoned = [other.tid for other in items[idx:]]
                yield from self._report(failed=abandoned)
                raise
            yield from self._report(done=[item.tid])

    def _await_staged(self, item: TransferAdvice, deadline: float):
        """Poll until the in-flight duplicate lands; 'done' or 'resubmit'."""
        while True:
            state = yield from self.policy.staging_state(item.lfn, item.dst_url)
            if state == "staged":
                return "done"
            if state == "unknown":
                return "resubmit"  # the other workflow's transfer failed
            if item.wait_for is not None:
                # The resource still reads "staging", but the transfer it
                # waits on may be gone — failed, lease-reaped, or forgotten
                # by a restarted service.  "unknown" must mean resubmit,
                # not wait-forever: nobody is going to finish that staging.
                tstate = yield from self.policy.transfer_state(item.wait_for)
                if tstate in ("failed", "unknown"):
                    return "resubmit"
            if self.env.now >= deadline:
                raise TransferError(
                    f"timed out waiting for {item.lfn!r} to be staged by "
                    f"transfer {item.wait_for}",
                    item.src_url,
                    item.dst_url,
                )
            yield self.env.timeout(self.poll_interval)

    # ------------------------------------------------------------ degraded mode
    def finalize(self, workflow_id: str):
        """Best-effort flush of queued reports and the degraded backlog.

        Call once when a workflow finishes, so completions that failed to
        be delivered mid-run reach the service before the workflow
        unregisters.  Returns False when the service is still down — the
        service's lease reaper then retires the orphaned grants.
        """
        return (yield from self._reconcile(workflow_id))

    def _execute_degraded(
        self, workflow_id: str, specs: list[dict], record: StagingRecord,
        track: str = "ptt",
    ):
        """Policy-free fallback: serial transfers with default streams.

        Staged files enter the per-workflow backlog so the policy memory
        learns about them once the service is reachable again.
        """
        backlog = self._degraded_staged.setdefault(workflow_id, [])
        streams = self.default_streams
        for spec in specs:
            yield from self._transfer(
                spec["lfn"], spec["src_url"], spec["dst_url"], spec["nbytes"], streams,
                False, record,
                track=track, mode="degraded", streams=streams, nbytes=spec["nbytes"],
            )
            record.degraded += 1
            # Byte counts ride along so the service's staged-data catalog
            # can size the adopted replica at reconciliation.
            backlog.append((spec["lfn"], spec["dst_url"], spec["nbytes"]))

    def _reconcile(self, workflow_id: str):
        """Flush queued completion reports and the degraded-staging backlog.

        Returns True when the service acknowledged everything (or there
        was nothing to flush); False when it is still unreachable.
        """
        if (yield from self._report()):
            return False
        backlog = self._degraded_staged.get(workflow_id)
        if backlog:
            try:
                yield from self.policy.reconcile_staged(workflow_id, list(backlog))
            except PolicyUnavailableError:
                return False
            self._degraded_staged[workflow_id] = []
        return True

    def _report(self, done=(), failed=()):
        """Report completions, queueing them if the service is unreachable.

        Earlier queued reports ride along.  Returns True when reports are
        still queued afterwards.  A lost completion report must not fail
        the job — the transfer itself succeeded; the service learns about
        it at the next reconciliation (and its lease reaper bounds the
        damage meanwhile).
        """
        done = self._unreported_done + list(done)
        failed = self._unreported_failed + list(failed)
        self._unreported_done, self._unreported_failed = [], []
        if not done and not failed:
            return False
        try:
            result = yield from self.policy.complete_transfers(done=done, failed=failed)
        except PolicyUnavailableError:
            # Extend, don't assign: a concurrent job may have queued its
            # own ids while this call was in flight.
            self._unreported_done.extend(done)
            self._unreported_failed.extend(failed)
            return True
        self._apply_evictions(result)
        return False

    def _apply_evictions(self, result) -> None:
        """Delete replicas the service's catalog evicted over a completion.

        The eviction rule pack only *selects* victims; the PTT owns the
        actual deletion (same division of labour as cleanup advice) —
        drop the simulated replica-catalog entry at the victim's site
        and release its scratch bytes.
        """
        if not isinstance(result, dict):
            return
        for victim in result.get("evicted", ()):
            host, _ = parse_url(victim["url"])
            site = self.host_site.get(host, host)
            if self.replicas is not None:
                self.replicas.unregister(victim["lfn"], site=site)
            if self.storage is not None and site == self.storage.site:
                self.storage.remove(victim["lfn"])
            self.evicted_log.append((victim["lfn"], victim["url"]))

    # ------------------------------------------------------------------ helpers
    def _register(self, lfn: str, dst_url: str, nbytes: float = 0.0) -> None:
        host, _ = parse_url(dst_url)
        self.staged_log.append((lfn, dst_url))
        site = self.host_site.get(host, host)
        if self.replicas is not None:
            self.replicas.register(lfn, site, dst_url)
        if self.storage is not None and site == self.storage.site:
            self.storage.add(lfn, nbytes)
