"""Fair-share admission into a bounded pool of execution slots.

The :class:`AdmissionController` is a DES process that drains an
:class:`~repro.tenancy.scheduler.EnsembleScheduler` queue:

* at most ``max_concurrent`` workflows run at once, and a tenant never
  exceeds its own ``max_concurrent`` cap (capped tenants stay queued
  without blocking others);
* admission charges the submission's *estimated* bytes to the tenant's
  fair-share ledger immediately, so a burst of free slots spreads across
  tenants instead of draining one tenant's queue; the charge is
  reconciled to actual bytes when the workflow completes;
* optional **backpressure**: when a pressure probe (typically the policy
  service's working-memory size) rises past a high watermark, admission
  pauses until it falls back below the low watermark — classic
  hysteresis so the controller does not flap.  If nothing is running the
  controller admits anyway: with zero workflows in flight nothing can
  relieve the pressure, and waiting would deadlock the ensemble.

Every decision is traced under the ``tenant`` category (``tenant.submit``,
``tenant.reject``, ``tenant.admit``, ``tenant.backpressure``, a
``tenant.run`` span per workflow, and a ``tenant.queue`` counter), all
stamped with simulated time so runs are byte-identical given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.des.core import Environment, Event
from repro.tenancy.scheduler import EnsembleScheduler, Submission, TenantQuotaError

__all__ = ["AdmissionConfig", "AdmissionController"]

#: A starter runs one admitted submission as a DES generator and returns
#: the number of bytes it actually staged (charged to the tenant).
Starter = Callable[[Submission], Generator]


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission knobs (watermarks come as a pair or not at all)."""

    max_concurrent: int = 2
    backpressure_high: Optional[float] = None
    backpressure_low: Optional[float] = None
    poll_interval: float = 5.0

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        high, low = self.backpressure_high, self.backpressure_low
        if (high is None) != (low is None):
            raise ValueError("backpressure watermarks must be set together")
        if high is not None and not (0 <= low <= high):
            raise ValueError("watermarks must satisfy 0 <= low <= high")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be > 0")


class AdmissionController:
    """Admits queued submissions into slots; see the module docstring."""

    def __init__(
        self,
        env: Environment,
        scheduler: EnsembleScheduler,
        config: Optional[AdmissionConfig] = None,
        pressure_probe: Optional[Callable[[], float]] = None,
    ):
        self.env = env
        self.scheduler = scheduler
        self.config = config or AdmissionConfig()
        self.tracer = env.tracer
        self.pressure_probe = pressure_probe
        #: submission names in the order they were admitted (determinism witness)
        self.admission_order: list[str] = []
        #: submission names in the order they completed
        self.completed: list[str] = []
        #: (tenant, name, reason) for quota-rejected submissions
        self.rejected: list[tuple[str, str, str]] = []
        self._inflight = 0
        self._running: dict[str, int] = {}
        self._throttled = False
        self._waiters: list[Event] = []

    # -- intake ---------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        name: str,
        starter: Starter,
        est_bytes: float = 0.0,
    ) -> Optional[Submission]:
        """Queue a workflow; returns None (and records it) on quota rejection."""
        tracer = self.tracer
        try:
            sub = self.scheduler.submit(tenant, name, est_bytes, payload=starter)
        except TenantQuotaError as exc:
            self.rejected.append((tenant, name, str(exc)))
            if tracer.enabled:
                tracer.instant("tenant", "tenant.reject", tenant=tenant,
                               workflow=name, reason=str(exc))
            return None
        if tracer.enabled:
            tracer.instant("tenant", "tenant.submit", tenant=tenant,
                           workflow=name, est_bytes=float(est_bytes))
        self._poke()
        return sub

    # -- the dispatcher process ----------------------------------------------
    def run(self):
        """Start the dispatcher; returns its process (ends when drained)."""
        return self.env.process(self._dispatch(), name="admission")

    def _dispatch(self):
        while len(self.scheduler) or self._inflight:
            sub = None
            if self._inflight < self.config.max_concurrent:
                if self._backpressured() and self._inflight > 0:
                    # Pressure high and relief possible: wait for a
                    # completion or re-probe after the poll interval.
                    yield self.env.any_of([
                        self._wait_event(),
                        self.env.timeout(self.config.poll_interval),
                    ])
                    continue
                sub = self.scheduler.select(self._eligible)
            if sub is None:
                # Slots full, or every queued tenant is at its cap: a
                # completion is the only thing that can change that.
                yield self._wait_event()
                continue
            self._admit(sub)
        self._sample_queue()

    def _eligible(self, sub: Submission) -> bool:
        cap = self.scheduler.registry.get(sub.tenant).max_concurrent
        return cap is None or self._running.get(sub.tenant, 0) < cap

    def _admit(self, sub: Submission) -> None:
        self._inflight += 1
        self._running[sub.tenant] = self._running.get(sub.tenant, 0) + 1
        self.admission_order.append(sub.name)
        self.scheduler.charge(sub.tenant, sub.est_bytes)
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant("tenant", "tenant.admit", tenant=sub.tenant,
                           workflow=sub.name, running=self._inflight,
                           queued=len(self.scheduler))
        self._sample_queue()
        self.env.process(self._child(sub), name=f"tenant-run-{sub.seq}")

    def _child(self, sub: Submission):
        tracer = self.tracer
        span = None
        if tracer.enabled:
            span = tracer.begin("tenant", "tenant.run",
                                track=f"tenant:{sub.tenant}",
                                tenant=sub.tenant, workflow=sub.name)
        actual = 0.0
        try:
            result = yield from sub.payload(sub)
            actual = float(result or 0.0)
        finally:
            # Reconcile the admission-time estimate to actual bytes.
            self.scheduler.charge(sub.tenant, actual - sub.est_bytes)
            self._inflight -= 1
            self._running[sub.tenant] -= 1
            self.completed.append(sub.name)
            if span is not None:
                tracer.end(span, bytes_staged=actual)
            self._sample_queue()
            self._poke()

    # -- backpressure ----------------------------------------------------------
    def _backpressured(self) -> bool:
        if self.pressure_probe is None or self.config.backpressure_high is None:
            return False
        value = self.pressure_probe()
        tracer = self.tracer
        if self._throttled:
            if value <= self.config.backpressure_low:
                self._throttled = False
                if tracer.enabled:
                    tracer.instant("tenant", "tenant.backpressure",
                                   state="released", pressure=value)
        elif value >= self.config.backpressure_high:
            self._throttled = True
            if tracer.enabled:
                tracer.instant("tenant", "tenant.backpressure",
                               state="engaged", pressure=value)
        return self._throttled

    # -- plumbing --------------------------------------------------------------
    def _wait_event(self) -> Event:
        event = Event(self.env)
        self._waiters.append(event)
        return event

    def _poke(self) -> None:
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()

    def _sample_queue(self) -> None:
        tracer = self.tracer
        if tracer.enabled:
            tracer.counter("tenant", "tenant.queue",
                           queued=len(self.scheduler), running=self._inflight)
