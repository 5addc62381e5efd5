"""One policy shard: a `PolicyService` behind a backend + health state.

A shard is a full :class:`~repro.policy.service.PolicyService` owning a
slice of the keyspace, wrapped in two layers:

* a **backend** that hosts the service — in the router's process
  (:class:`InProcessShardBackend`, used by the DES, chaos harness, and
  REST frontend) or in a worker process
  (:class:`~repro.policy.sharding.procshard.ProcessShardBackend`, used
  by the scaling benchmark);
* a :class:`ShardHandle` that the router talks to — it folds liveness
  (``up``), reachability (``partitioned``), fault-injected timeouts
  (``timeout_rate``), and a per-shard
  :class:`~repro.policy.client.CircuitBreaker` into every call, raising
  :class:`ShardUnavailableError` when the shard cannot serve.

Each shard keeps its own journal directory, so one shard can crash,
lose its working memory, and be replayed from its WAL/snapshot without
any other shard noticing.  A recovered shard always has its internal
lease sweep disabled again (``_next_sweep = inf``): sweeping is the
router's job, mirrored from the single-service throttle, so that sweep
timing — and therefore advice — matches the unsharded service exactly.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Optional

from repro.policy.client import CircuitBreaker
from repro.policy.journal import PolicyJournal
from repro.policy.model import (
    CleanupFact,
    HostPairFact,
    PolicyConfig,
    StagedFileFact,
    TransferFact,
)
from repro.policy.service import PolicyService

__all__ = [
    "EXTRA_OPS",
    "InProcessShardBackend",
    "ShardHandle",
    "ShardUnavailableError",
    "disable_local_sweep",
]


class ShardUnavailableError(RuntimeError):
    """The shard cannot serve: down, partitioned, timed out, or breaker-open.

    Raised (and caught) inside the router only — callers of
    :class:`~repro.policy.sharding.router.ShardedPolicyService` see
    degraded advice or ``"unknown"`` query answers, never this error.
    """


def disable_local_sweep(service: PolicyService) -> PolicyService:
    """Hand lease sweeping over to the router (see module docstring)."""

    service._next_sweep = float("inf")
    return service


# ---------------------------------------------------------------------------
# Router-only service operations (shared with the process-backend worker).
#
# The router needs a few aggregate views that are not part of the client
# surface; keeping them here as plain functions lets both backends (and
# the worker process) dispatch them by name.
# ---------------------------------------------------------------------------

def _op_memory_len(service: PolicyService) -> int:
    return len(service.memory)


def _op_memory_census(service: PolicyService) -> dict:
    return service.memory.snapshot()


def _op_host_pairs(service: PolicyService) -> list:
    return sorted(
        {(p.src_host, p.dst_host) for p in service.memory.facts_of(HostPairFact)}
    )


def _op_staged_keys(service: PolicyService) -> list:
    """Every (lfn, dst_url) the shard still holds state for."""

    keys = {(r.lfn, r.dst_url) for r in service.memory.facts_of(StagedFileFact)}
    keys |= {(t.lfn, t.dst_url) for t in service.memory.facts_of(TransferFact)}
    return sorted(keys)


def _op_in_progress_census(service: PolicyService) -> dict:
    transfers = sum(
        1 for t in service.memory.facts_of(TransferFact) if t.status == "in_progress"
    )
    cleanups = sum(
        1 for c in service.memory.facts_of(CleanupFact) if c.status == "in_progress"
    )
    return {"transfers": transfers, "cleanups": cleanups}


EXTRA_OPS: dict[str, Callable] = {
    "memory_len": _op_memory_len,
    "memory_census": _op_memory_census,
    "host_pairs": _op_host_pairs,
    "staged_keys": _op_staged_keys,
    "in_progress_census": _op_in_progress_census,
}


def invoke_on_service(service: PolicyService, name: str, *args, **kwargs):
    """Dispatch ``name`` on a service: extra op, method, or property."""

    extra = EXTRA_OPS.get(name)
    if extra is not None:
        return extra(service, *args, **kwargs)
    attr = getattr(service, name)
    if callable(attr):
        return attr(*args, **kwargs)
    return attr


class InProcessShardBackend:
    """Hosts one shard's `PolicyService` inside the router's process.

    Owns the construction recipe (config, clock, journal
    directory) so it can rebuild the service after a simulated crash:
    with a journal directory, :meth:`recover` replays the WAL/snapshot;
    without one, recovery starts from empty memory (pure equivalence
    tests don't need durability).
    """

    def __init__(
        self,
        config: Optional[PolicyConfig] = None,
        clock: Optional[Callable[[], float]] = None,
        journal_dir=None,
        snapshot_interval: int = 1000,
        fsync: bool = False,
        metrics=None,
        tracer=None,
        profiler=None,
    ) -> None:
        self.config = config if config is not None else PolicyConfig()
        self.clock = clock
        self.journal_dir = journal_dir
        self.snapshot_interval = snapshot_interval
        self.fsync = fsync
        self.metrics = metrics
        self.tracer = tracer
        self.profiler = profiler
        self.service: Optional[PolicyService] = self._build()

    def _build(self) -> PolicyService:
        journal = None
        if self.journal_dir is not None:
            journal = PolicyJournal(
                self.journal_dir,
                snapshot_interval=self.snapshot_interval,
                fsync=self.fsync,
            )
        service = PolicyService(
            self.config,
            clock=self.clock,
            journal=journal,
            metrics=self.metrics,
            tracer=self.tracer,
            profiler=self.profiler,
        )
        return disable_local_sweep(service)

    def invoke(self, name: str, *args, **kwargs):
        if self.service is None:
            raise ShardUnavailableError("shard service is down")
        return invoke_on_service(self.service, name, *args, **kwargs)

    def crash(self) -> None:
        """Drop the service — working memory is lost, the journal survives."""

        if self.service is not None and self.service.journal is not None:
            self.service.journal.close()
        self.service = None

    def recover(self) -> None:
        """Rebuild the service: journal replay when durable, else fresh."""

        if self.journal_dir is not None:
            # Reuse the same registry so shard counters keep accumulating
            # across the crash, like a restarted process scraping into the
            # same time series.
            service = PolicyService.recover(
                self.journal_dir,
                config=self.config,
                clock=self.clock,
                snapshot_interval=self.snapshot_interval,
                fsync=self.fsync,
                metrics=self.metrics,
                tracer=self.tracer,
                profiler=self.profiler,
            )
            self.service = disable_local_sweep(service)
        else:
            self.service = self._build()

    def metrics_text(self) -> str:
        if self.service is None:
            return ""
        return self.service.metrics_text()

    def close(self) -> None:
        if self.service is not None and self.service.journal is not None:
            self.service.journal.close()


class ShardHandle:
    """The router's view of one shard: call path + health + breaker."""

    def __init__(
        self,
        index: int,
        backend,
        breaker: Optional[CircuitBreaker] = None,
        clock: Optional[Callable[[], float]] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.index = index
        self.backend = backend
        if breaker is None:
            breaker = CircuitBreaker(clock=clock or time.monotonic)
        self.breaker = breaker
        self.up = True
        #: router partition: shard is unreachable but its memory is intact
        self.partitioned = False
        #: ShardSlowdown: fraction of calls that time out (0.0 = healthy)
        self.timeout_rate = 0.0
        self.crashes = 0
        self.recoveries = 0
        self._rng = rng or random.Random(0xC0FFEE + index)
        self._stamp_shard_index()

    def _stamp_shard_index(self) -> None:
        """Tell an in-process service which shard it is (decision meta)."""

        service = getattr(self.backend, "service", None)
        if service is not None:
            service.shard_index = self.index

    # ------------------------------------------------------------------ calls
    def call(self, name: str, *args, **kwargs):
        """Invoke an operation, folding in health state and the breaker.

        Raises :class:`ShardUnavailableError` when the shard cannot
        serve; domain errors (e.g. ``RuntimeError`` from binding an
        unknown tenant) propagate unchanged and do not trip the breaker.
        """

        if not self.breaker.allow():
            raise ShardUnavailableError(
                f"shard {self.index} circuit breaker is open"
            )
        if not self.up:
            self.breaker.record_failure()
            raise ShardUnavailableError(f"shard {self.index} is down")
        if self.partitioned:
            self.breaker.record_failure()
            raise ShardUnavailableError(f"shard {self.index} is partitioned")
        if self.timeout_rate > 0.0 and self._rng.random() < self.timeout_rate:
            self.breaker.record_failure()
            raise ShardUnavailableError(f"shard {self.index} timed out")
        try:
            result = self.backend.invoke(name, *args, **kwargs)
        except ShardUnavailableError:
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        return result

    def healthy(self) -> bool:
        """True when a call would not fail for availability reasons."""

        return (
            self.up
            and not self.partitioned
            and self.breaker.state != "open"
        )

    # ------------------------------------------------------------------ faults
    def crash(self) -> None:
        """Kill the shard: memory lost, journal intact, calls fail."""

        self.up = False
        self.crashes += 1
        self.backend.crash()

    def recover(self) -> None:
        """Replay the shard from its journal and mark it serving again."""

        self.backend.recover()
        self._stamp_shard_index()
        self.up = True
        self.partitioned = False
        self.timeout_rate = 0.0
        self.recoveries += 1
        self.breaker.record_success()

    # ------------------------------------------------------------------ status
    def describe(self) -> dict:
        return {
            "shard": self.index,
            "up": self.up,
            "partitioned": self.partitioned,
            "timeout_rate": self.timeout_rate,
            "healthy": self.healthy(),
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "breaker": self.breaker.snapshot(),
        }
