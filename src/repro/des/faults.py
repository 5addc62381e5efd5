"""Fault injection for chaos experiments.

A :class:`FaultPlan` declares *when* things break; a
:class:`FaultInjector` turns the plan into DES processes that break them:

* :class:`ServiceOutage` — the Policy Service crashes at ``at`` and is
  unreachable for ``duration`` seconds.  When the injector was given a
  ``restart`` callable, the service comes back as whatever it returns —
  typically ``PolicyService.recover(journal_dir)``, which is how the
  chaos tests exercise the durable policy memory end to end.
* :class:`RpcDropWindow` — individual policy RPCs are dropped with
  probability ``rate`` during the window (flaky network, not a crash).
* :class:`GridFTPStorm` — the transfer fabric's failure rate is raised
  to ``failure_rate`` for the window, then restored.
* :class:`ShardCrash` — one shard of a
  :class:`~repro.policy.sharding.router.ShardedPolicyService` dies at
  ``at`` (working memory lost, journal kept) and is replayed from its
  WAL/snapshot ``down_for`` seconds later; the other shards serve
  uninterrupted throughout.
* :class:`ShardSlowdown` — a fraction of one shard's calls time out
  during the window, driving its circuit breaker.
* :class:`RouterPartition` — one shard is unreachable from the router
  for the window; its memory stays intact (no replay needed).

The injector hooks the simulation through the
:class:`~repro.policy.client.InProcessPolicyClient` ``fault_gate`` and
the :class:`~repro.net.gridftp.GridFTPClient` ``failure_rate`` knob; it
lives in :mod:`repro.des` but is imported explicitly (not re-exported
from the package) so the DES kernel itself stays policy-agnostic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.des.core import Environment

__all__ = [
    "ServiceOutage",
    "RpcDropWindow",
    "GridFTPStorm",
    "ShardCrash",
    "ShardSlowdown",
    "RouterPartition",
    "FaultPlan",
    "FaultInjector",
]


@dataclass(frozen=True)
class ServiceOutage:
    """The Policy Service is down during ``[at, at + duration)``."""

    at: float
    duration: float

    def __post_init__(self):
        if self.at < 0 or self.duration <= 0:
            raise ValueError("outage needs at >= 0 and duration > 0")


@dataclass(frozen=True)
class RpcDropWindow:
    """Policy RPCs are dropped with probability ``rate`` in the window."""

    at: float
    duration: float
    rate: float = 1.0

    def __post_init__(self):
        if self.at < 0 or self.duration <= 0:
            raise ValueError("drop window needs at >= 0 and duration > 0")
        if not 0 < self.rate <= 1:
            raise ValueError("rate must be in (0, 1]")


@dataclass(frozen=True)
class GridFTPStorm:
    """The fabric's transfer failure rate spikes during the window."""

    at: float
    duration: float
    failure_rate: float

    def __post_init__(self):
        if self.at < 0 or self.duration <= 0:
            raise ValueError("storm needs at >= 0 and duration > 0")
        if not 0 <= self.failure_rate <= 1:
            raise ValueError("failure_rate must be in [0, 1]")


@dataclass(frozen=True)
class ShardCrash:
    """Shard ``shard`` crashes at ``at``; journal replay after ``down_for``."""

    at: float
    shard: int
    down_for: float

    def __post_init__(self):
        if self.at < 0 or self.down_for <= 0:
            raise ValueError("shard crash needs at >= 0 and down_for > 0")
        if self.shard < 0:
            raise ValueError("shard index must be >= 0")


@dataclass(frozen=True)
class ShardSlowdown:
    """A fraction of shard ``shard``'s calls time out in the window."""

    at: float
    duration: float
    shard: int
    timeout_rate: float = 1.0

    def __post_init__(self):
        if self.at < 0 or self.duration <= 0:
            raise ValueError("slowdown needs at >= 0 and duration > 0")
        if self.shard < 0:
            raise ValueError("shard index must be >= 0")
        if not 0 < self.timeout_rate <= 1:
            raise ValueError("timeout_rate must be in (0, 1]")


@dataclass(frozen=True)
class RouterPartition:
    """Shard ``shard`` is unreachable (memory intact) during the window."""

    at: float
    duration: float
    shard: int

    def __post_init__(self):
        if self.at < 0 or self.duration <= 0:
            raise ValueError("partition needs at >= 0 and duration > 0")
        if self.shard < 0:
            raise ValueError("shard index must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A declarative schedule of faults for one simulation run."""

    outages: tuple[ServiceOutage, ...] = ()
    rpc_drops: tuple[RpcDropWindow, ...] = ()
    storms: tuple[GridFTPStorm, ...] = ()
    shard_crashes: tuple[ShardCrash, ...] = ()
    shard_slowdowns: tuple[ShardSlowdown, ...] = ()
    partitions: tuple[RouterPartition, ...] = ()

    @classmethod
    def single_crash(cls, at: float, duration: float) -> "FaultPlan":
        """The canonical chaos scenario: one mid-run service outage."""
        return cls(outages=(ServiceOutage(at=at, duration=duration),))

    @classmethod
    def single_shard_crash(
        cls, at: float, shard: int, down_for: float
    ) -> "FaultPlan":
        """The canonical shard chaos scenario: one shard dies and replays."""
        return cls(
            shard_crashes=(ShardCrash(at=at, shard=shard, down_for=down_for),)
        )


class FaultInjector:
    """Schedules a :class:`FaultPlan` onto a simulation environment.

    Attach the targets first, then :meth:`start` (before ``env.run``)::

        injector = FaultInjector(env, plan, rng=rng)
        injector.attach_policy(client, restart=lambda: PolicyService.recover(d))
        injector.attach_gridftp(gridftp)
        injector.start()
    """

    def __init__(
        self,
        env: Environment,
        plan: FaultPlan,
        rng: Optional[random.Random] = None,
    ):
        self.env = env
        self.plan = plan
        self._rng = rng or random.Random(0)
        self._policy_client = None
        self._restart: Optional[Callable[[], object]] = None
        self._gridftp = None
        self._router = None
        self.service_down = False
        self._drop_rate = 0.0
        #: (time, description) trace of everything the injector did
        self.log: list[tuple[float, str]] = []

    def _trace(self, name: str, **args) -> None:
        """Mark a fault transition on the trace's ``fault`` track."""
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.instant("fault", name, track="fault", **args)

    # ------------------------------------------------------------------ wiring
    def attach_policy(self, client, restart: Optional[Callable[[], object]] = None) -> None:
        """Gate ``client``'s RPCs through this injector.

        ``restart`` (optional) is called when an outage ends; its return
        value replaces ``client.service`` — the recovery path.
        """
        from repro.policy.client import PolicyUnavailableError  # local: layering

        self._policy_client = client
        self._restart = restart

        def gate(method: str) -> None:
            if self.service_down:
                raise PolicyUnavailableError(
                    f"policy service is down (fault injection, call={method})"
                )
            if self._drop_rate > 0 and self._rng.random() < self._drop_rate:
                raise PolicyUnavailableError(
                    f"policy rpc dropped (fault injection, call={method})"
                )

        client.fault_gate = gate

    def attach_gridftp(self, gridftp) -> None:
        """Let storms drive ``gridftp.failure_rate``."""
        self._gridftp = gridftp

    def attach_router(self, router) -> None:
        """Let shard faults drive a :class:`ShardedPolicyService`.

        The router must expose ``crash_shard`` / ``recover_shard`` /
        ``slow_shard`` / ``partition_shard`` and a ``num_shards``
        attribute (shard indices in the plan are validated against it).
        """
        self._router = router

    # ------------------------------------------------------------------ running
    def start(self) -> None:
        """Spawn one DES process per scheduled fault."""
        if self.plan.outages and self._policy_client is None:
            raise RuntimeError("plan has outages but no policy client attached")
        if self.plan.rpc_drops and self._policy_client is None:
            raise RuntimeError("plan has rpc drops but no policy client attached")
        if self.plan.storms and self._gridftp is None:
            raise RuntimeError("plan has storms but no gridftp client attached")
        shard_faults = (
            self.plan.shard_crashes
            + self.plan.shard_slowdowns
            + self.plan.partitions
        )
        if shard_faults:
            if self._router is None:
                raise RuntimeError("plan has shard faults but no router attached")
            for fault in shard_faults:
                if fault.shard >= self._router.num_shards:
                    raise RuntimeError(
                        f"fault targets shard {fault.shard} but the router "
                        f"has only {self._router.num_shards} shards"
                    )
        for outage in self.plan.outages:
            self.env.process(self._run_outage(outage), name="fault-outage")
        for window in self.plan.rpc_drops:
            self.env.process(self._run_drop_window(window), name="fault-rpc-drop")
        for storm in self.plan.storms:
            self.env.process(self._run_storm(storm), name="fault-storm")
        for crash in self.plan.shard_crashes:
            self.env.process(self._run_shard_crash(crash), name="fault-shard-crash")
        for slowdown in self.plan.shard_slowdowns:
            self.env.process(
                self._run_shard_slowdown(slowdown), name="fault-shard-slowdown"
            )
        for partition in self.plan.partitions:
            self.env.process(
                self._run_partition(partition), name="fault-router-partition"
            )

    def _run_outage(self, outage: ServiceOutage):
        yield self.env.timeout(outage.at)
        self.service_down = True
        self.log.append((self.env.now, "service crashed"))
        self._trace("fault.outage.begin", duration=outage.duration)
        yield self.env.timeout(outage.duration)
        if self._restart is not None:
            self._policy_client.service = self._restart()
            self.log.append((self.env.now, "service recovered from journal"))
            self._trace("fault.outage.end", recovered="journal")
        else:
            self.log.append((self.env.now, "service back up"))
            self._trace("fault.outage.end", recovered="restart")
        self.service_down = False

    def _run_drop_window(self, window: RpcDropWindow):
        yield self.env.timeout(window.at)
        self._drop_rate = window.rate
        self.log.append((self.env.now, f"dropping rpcs at rate {window.rate:g}"))
        self._trace("fault.rpc_drop.begin", rate=window.rate, duration=window.duration)
        yield self.env.timeout(window.duration)
        self._drop_rate = 0.0
        self.log.append((self.env.now, "rpc drops ended"))
        self._trace("fault.rpc_drop.end")

    def _run_shard_crash(self, crash: ShardCrash):
        yield self.env.timeout(crash.at)
        self._router.crash_shard(crash.shard)
        self.log.append((self.env.now, f"shard {crash.shard} crashed"))
        self._trace(
            "fault.shard_crash.begin", shard=crash.shard, down_for=crash.down_for
        )
        yield self.env.timeout(crash.down_for)
        self._router.recover_shard(crash.shard)
        self.log.append(
            (self.env.now, f"shard {crash.shard} replayed from journal")
        )
        self._trace("fault.shard_crash.end", shard=crash.shard)

    def _run_shard_slowdown(self, slowdown: ShardSlowdown):
        yield self.env.timeout(slowdown.at)
        self._router.slow_shard(slowdown.shard, slowdown.timeout_rate)
        self.log.append(
            (
                self.env.now,
                f"shard {slowdown.shard} slow: timeout rate "
                f"{slowdown.timeout_rate:g}",
            )
        )
        self._trace(
            "fault.shard_slowdown.begin",
            shard=slowdown.shard, timeout_rate=slowdown.timeout_rate,
            duration=slowdown.duration,
        )
        yield self.env.timeout(slowdown.duration)
        self._router.slow_shard(slowdown.shard, 0.0)
        # The breaker may still be open from the timeouts; the next
        # successful call (or probe after reset_timeout) closes it.
        self.log.append((self.env.now, f"shard {slowdown.shard} back to speed"))
        self._trace("fault.shard_slowdown.end", shard=slowdown.shard)

    def _run_partition(self, partition: RouterPartition):
        yield self.env.timeout(partition.at)
        self._router.partition_shard(partition.shard, True)
        self.log.append(
            (self.env.now, f"shard {partition.shard} partitioned from router")
        )
        self._trace(
            "fault.partition.begin",
            shard=partition.shard, duration=partition.duration,
        )
        yield self.env.timeout(partition.duration)
        self._router.partition_shard(partition.shard, False)
        self.log.append((self.env.now, f"shard {partition.shard} reachable again"))
        self._trace("fault.partition.end", shard=partition.shard)

    def _run_storm(self, storm: GridFTPStorm):
        yield self.env.timeout(storm.at)
        previous = self._gridftp.failure_rate
        self._gridftp.failure_rate = storm.failure_rate
        self.log.append(
            (self.env.now, f"gridftp storm: failure rate {storm.failure_rate:g}")
        )
        self._trace(
            "fault.storm.begin",
            failure_rate=storm.failure_rate, duration=storm.duration,
        )
        yield self.env.timeout(storm.duration)
        self._gridftp.failure_rate = previous
        self.log.append((self.env.now, "gridftp storm ended"))
        self._trace("fault.storm.end")
