"""One policy shard: a `PolicyService` plus its health state.

A shard is a full :class:`~repro.policy.service.PolicyService` owning a
slice of the keyspace.  :class:`ShardHandle` is the router's view of it:
it keeps the recipe that builds the service, and it folds liveness
(``service is not None``), reachability (``partitioned``),
fault-injected timeouts (``timeout_rate``), and a per-shard
:class:`~repro.policy.client.CircuitBreaker` into every call, raising
:class:`ShardUnavailableError` when the shard cannot serve.

A handle also owns what its shard is owed: every completion, reconcile
or admin operation the shard could not serve waits in ``owed``, in
arrival order, and is delivered before the next call the shard serves
(under that call's admission) or by :meth:`ShardHandle.recover` — so a
healed partition or slowdown delivers it exactly like a replayed crash.

Each shard keeps its own journal directory, so one shard can crash,
lose its working memory, and be replayed from its WAL/snapshot without
any other shard noticing.  Every service a handle puts into service —
new or recovered — has its internal lease sweep disabled
(``_next_sweep = inf``): sweeping is the router's job, mirrored from the
single-service throttle, so that sweep timing — and therefore advice —
matches the unsharded service exactly.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from repro.policy.client import CircuitBreaker
from repro.policy.journal import PolicyJournal
from repro.policy.model import HostPairFact, PolicyConfig, StagedFileFact, TransferFact
from repro.policy.service import PolicyService

__all__ = ["ShardHandle", "ShardUnavailableError"]


class ShardUnavailableError(RuntimeError):
    """The shard cannot serve: down, partitioned, timed out, or breaker-open.

    Raised (and caught) inside the router only — callers of
    :class:`~repro.policy.sharding.router.ShardedPolicyService` see
    degraded advice or ``"unknown"`` query answers, never this error.
    """


# Router-only views of a shard's memory: not part of the client surface,
# but callable by name through :meth:`ShardHandle.call` like one.

def _staged_keys(service: PolicyService) -> list:
    """Every (lfn, dst_url) the shard still holds state for."""

    keys = {(r.lfn, r.dst_url) for r in service.memory.facts_of(StagedFileFact)}
    keys |= {(t.lfn, t.dst_url) for t in service.memory.facts_of(TransferFact)}
    return sorted(keys)


_VIEWS: dict[str, Callable[..., Any]] = {
    "memory_len": lambda service: len(service.memory),
    "memory_census": lambda service: service.memory.snapshot(),
    "host_pairs": lambda service: sorted(
        {(p.src_host, p.dst_host) for p in service.memory.facts_of(HostPairFact)}
    ),
    "staged_keys": _staged_keys,
}


class ShardHandle:
    """One shard: its service, the recipe that rebuilds it, its health,
    and the operations it is owed.

    ``service`` is None while the shard is crashed.  With a journal
    directory, :meth:`recover` replays the WAL/snapshot; without one,
    recovery starts from empty memory (pure equivalence tests don't need
    durability).
    """

    def __init__(
        self,
        index: int,
        config: PolicyConfig,
        clock: Callable[[], float],
        breaker: CircuitBreaker,
        journal_dir=None,
        snapshot_interval: int = 1000,
        fsync: bool = False,
        tracer=None,
        profiler=None,
    ) -> None:
        self.index = index
        self.journal_dir = journal_dir
        self._service_kwargs: dict[str, Any] = dict(
            config=config, clock=clock, tracer=tracer, profiler=profiler
        )
        self._journal_kwargs: dict[str, Any] = dict(
            snapshot_interval=snapshot_interval, fsync=fsync
        )
        self.breaker = breaker
        #: router partition: shard is unreachable but its memory is intact
        self.partitioned = False
        #: ShardSlowdown: fraction of calls that time out (0.0 = healthy)
        self.timeout_rate = 0.0
        self.crashes = 0
        self.recoveries = 0
        #: (name, args, kwargs) the shard could not serve, in arrival order
        self.owed: list[tuple[str, tuple, dict]] = []
        #: owed operations the shard refused when they were delivered
        self.errors: list[str] = []
        self._rng = random.Random(0xC0FFEE + index)
        self.service: Optional[PolicyService] = None
        journal = None
        if journal_dir is not None:
            journal = PolicyJournal(journal_dir, **self._journal_kwargs)
        self._serve(PolicyService(journal=journal, **self._service_kwargs))

    def _serve(self, service: PolicyService) -> None:
        """Put a new or recovered service into service as this shard."""

        service._next_sweep = float("inf")  # the router sweeps (module docstring)
        service.shard_index = self.index  # decision meta
        self.service = service

    # ------------------------------------------------------------------ calls
    def call(self, name: str, *args, **kwargs):
        """Invoke an operation, folding in health state and the breaker.

        Raises :class:`ShardUnavailableError` when the shard cannot
        serve; domain errors (e.g. ``RuntimeError`` from binding an
        unknown tenant) propagate unchanged and do not trip the breaker.
        An admitted call first delivers what the shard is owed.
        """

        if not self.breaker.allow():
            raise ShardUnavailableError(
                f"shard {self.index} circuit breaker is open"
            )
        if self.service is None:
            self.breaker.record_failure()
            raise ShardUnavailableError(f"shard {self.index} is down")
        if self.partitioned:
            self.breaker.record_failure()
            raise ShardUnavailableError(f"shard {self.index} is partitioned")
        if self.timeout_rate > 0.0 and self._rng.random() < self.timeout_rate:
            self.breaker.record_failure()
            raise ShardUnavailableError(f"shard {self.index} timed out")
        if self.owed:
            self._deliver()
        result = self._invoke(name, args, kwargs)
        self.breaker.record_success()
        return result

    def _invoke(self, name: str, args: tuple, kwargs: dict):
        view = _VIEWS.get(name)
        if view is not None:
            return view(self.service, *args, **kwargs)
        result = getattr(self.service, name)
        return result(*args, **kwargs) if callable(result) else result

    def owe(self, name: str, *args, **kwargs) -> None:
        """Queue an operation the shard could not serve for delivery."""

        self.owed.append((name, args, kwargs))

    def _deliver(self) -> int:
        """Apply every owed operation in arrival order; return how many
        the shard accepted (a refusal is kept in ``errors``)."""

        owed, self.owed = self.owed, []
        accepted = 0
        for name, args, kwargs in owed:
            try:
                self._invoke(name, args, kwargs)
                accepted += 1
            except Exception as exc:  # noqa: BLE001 - chaos bookkeeping
                self.errors.append(f"shard {self.index} {name}: {exc!r}")
        return accepted

    def healthy(self) -> bool:
        """True when a call would not fail for availability reasons."""

        return (
            self.service is not None
            and not self.partitioned
            and self.breaker.state != "open"
        )

    # ------------------------------------------------------------------ faults
    def crash(self) -> None:
        """Kill the shard: memory lost, journal intact, calls fail."""

        self.crashes += 1
        self.close()
        self.service = None

    def recover(self) -> int:
        """Rebuild the service, mark it serving again and deliver what it
        is owed unless a partition still cuts it off; return how many owed
        operations it accepted.

        Recovery replays the journal when the shard has one, else starts
        empty.  It owns the service and the breaker only: an open
        partition or slowdown stays open until its own window ends.
        """

        if self.journal_dir is not None:
            service = PolicyService.recover(
                self.journal_dir, **self._journal_kwargs, **self._service_kwargs
            )
        else:
            service = PolicyService(**self._service_kwargs)
        self._serve(service)
        self.recoveries += 1
        self.breaker.record_success()
        return 0 if self.partitioned else self._deliver()

    def close(self) -> None:
        if self.service is not None:
            self.service.close()

    # ------------------------------------------------------------------ status
    def describe(self) -> dict:
        return {
            "shard": self.index,
            "up": self.service is not None,
            "partitioned": self.partitioned,
            "timeout_rate": self.timeout_rate,
            "healthy": self.healthy(),
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "breaker": self.breaker.snapshot(),
        }
