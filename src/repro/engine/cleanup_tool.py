"""The Pegasus cleanup process.

Cleanup jobs delete files no longer needed by the remaining workflow
execution.  With a policy client configured, each cleanup job submits its
file list to the Policy Service first; the service removes duplicates and
protects files still in use by other workflows (staged-file resources with
remaining users).  Deletions and the final completion report follow the
paper's protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.catalogs.replica import ReplicaCatalog
from repro.engine.storage import StorageTracker
from repro.des import Environment
from repro.net.urls import parse_url
from repro.planner.executable import ExecutableJob
from repro.policy.client import InProcessPolicyClient, PolicyUnavailableError

__all__ = ["CleanupTool", "CleanupRecord"]


@dataclass(slots=True)
class CleanupRecord:
    """Outcome of one cleanup job."""

    job_id: str
    deleted: int = 0
    skipped: int = 0
    #: files left on disk because the policy service was unreachable —
    #: deleting without advice could destroy files other workflows share
    deferred: int = 0


class CleanupTool:
    """Executes cleanup jobs, optionally under policy advice.

    ``per_file_latency`` models the filesystem unlink + bookkeeping cost.
    """

    def __init__(
        self,
        env: Environment,
        policy: Optional[InProcessPolicyClient] = None,
        per_file_latency: float = 0.05,
        replicas: Optional[ReplicaCatalog] = None,
        host_site: Optional[dict[str, str]] = None,
        storage: Optional[StorageTracker] = None,
    ):
        if not per_file_latency >= 0:  # NaN too
            raise ValueError(f"per_file_latency must be >= 0, got {per_file_latency}")
        self.env = env
        self.policy = policy
        self.per_file_latency = per_file_latency
        self.replicas = replicas
        self.host_site = host_site or {}
        self.storage = storage

    def execute(self, workflow_id: str, job: ExecutableJob):
        """Process generator: delete the job's files (as advised)."""
        record = CleanupRecord(job_id=job.id)
        tracer = self.env.tracer
        span = None
        if tracer.enabled:
            span = tracer.begin(
                "cleanup", f"cleanup:{job.id}", track="cleanup",
                files=len(job.cleanup_files),
            )
        if self.policy is None:
            for lfn, url in job.cleanup_files:
                yield from self._delete(lfn, url)
                record.deleted += 1
        else:
            try:
                advice = yield from self.policy.submit_cleanups(
                    workflow_id, job.id, list(job.cleanup_files)
                )
            except PolicyUnavailableError:
                # Unlike staging, deletion is unsafe without advice: the
                # file may be shared with another workflow.  Leave the
                # files in place — a later cleanup (or the operator) gets
                # them once the service is back.
                record.deferred += len(job.cleanup_files)
                if span is not None:
                    tracer.end(span, deferred=record.deferred)
                return record
            done_ids = []
            for item in advice:
                if item.action == "delete":
                    yield from self._delete(item.lfn, item.url)
                    record.deleted += 1
                    done_ids.append(item.cid)
                else:
                    record.skipped += 1
            if done_ids:
                try:
                    yield from self.policy.complete_cleanups(done_ids)
                except PolicyUnavailableError:
                    # The deletions happened; the service's lease reaper
                    # will retire the orphaned cleanup grants.
                    pass
        if span is not None:
            tracer.end(span, deleted=record.deleted, skipped=record.skipped)
        return record

    def _delete(self, lfn: str, url: str):
        if self.per_file_latency > 0:
            yield self.env.timeout(self.per_file_latency)
        host, _ = parse_url(url)
        site = self.host_site.get(host, host)
        if self.replicas is not None:
            self.replicas.unregister(lfn, site=site)
        if self.storage is not None and site == self.storage.site:
            self.storage.remove(lfn)
