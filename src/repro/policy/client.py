"""Policy Service clients.

Two clients with matching vocabularies:

* :class:`HTTPPolicyClient` — a blocking client for the real REST frontend
  (:mod:`repro.policy.rest`), used by deployments and the REST tests.
* :class:`InProcessPolicyClient` — the client used *inside simulations*:
  it calls the service directly but charges a configurable service-call
  latency on the simulation clock (the paper notes that consulting an
  external service "incurs overheads for the service calls").  Its methods
  are DES process generators, invoked with ``yield from``.

Both clients share one resilience vocabulary: bounded retries with
exponential backoff and jitter (:class:`RetryPolicy`) and a
:class:`CircuitBreaker` that stops hammering a dead service.  When the
retries are exhausted — or the circuit is open — the call raises
:class:`PolicyUnavailableError`; the transfer tool catches it and degrades
to policy-free staging rather than wedging the workflow.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator, Iterable, Optional

from repro.des.core import Environment
from repro.policy.controller import ROUTES
from repro.policy.model import CleanupAdvice, TransferAdvice
from repro.policy.service import PolicyService

__all__ = [
    "HTTPPolicyClient",
    "InProcessPolicyClient",
    "PolicyUnavailableError",
    "CircuitOpenError",
    "RetryPolicy",
    "CircuitBreaker",
]


class PolicyUnavailableError(RuntimeError):
    """The Policy Service could not be reached (after retries)."""


class CircuitOpenError(PolicyUnavailableError):
    """The circuit breaker is open — the call was not even attempted."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and jitter.

    ``retries`` is the number of *re*-attempts after the first call; the
    delay before retry ``n`` (0-based) is
    ``min(base_delay * multiplier**n, max_delay)``, inflated by up to
    ``jitter`` fraction so synchronized clients do not stampede a
    recovering service.
    """

    retries: int = 3
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.1

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1:
            raise ValueError("multiplier must be >= 1")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")

    def delay_for(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        delay = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * rng.random()
        return delay


class CircuitBreaker:
    """Classic three-state breaker guarding calls to the service.

    ``closed`` — calls flow; ``failure_threshold`` *consecutive* failures
    trip it ``open``.  While open, :meth:`allow` refuses immediately until
    ``reset_timeout`` has elapsed, then one probe call is let through
    (``half_open``): success closes the breaker, failure re-opens it.
    Thread-safe so the blocking HTTP client can share one instance.

    Every state change is counted in ``transitions`` (keys like
    ``"closed->open"``), and :meth:`state_code` maps the state to the
    gauge value exported as ``repro_policy_client_breaker_state``
    (0 = closed, 1 = half_open, 2 = open).
    """

    #: state -> metric gauge value (higher = less available)
    STATE_CODES = {"closed": 0, "half_open": 1, "open": 2}

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout < 0:
            raise ValueError("reset_timeout must be >= 0")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.clock = clock
        self.state = "closed"
        self.failures = 0
        self.opened_at: Optional[float] = None
        self.transitions: dict[str, int] = {}
        self._lock = threading.Lock()

    def _transition(self, new_state: str) -> None:
        """Move to ``new_state`` (under ``_lock``), counting the edge."""
        if new_state == self.state:
            return
        key = f"{self.state}->{new_state}"
        self.transitions[key] = self.transitions.get(key, 0) + 1
        self.state = new_state

    def allow(self) -> bool:
        """May a call proceed right now?  (May transition open -> half_open.)"""
        with self._lock:
            if self.state == "closed":
                return True
            if self.state == "open":
                if self.clock() - self.opened_at >= self.reset_timeout:
                    self._transition("half_open")
                    return True
                return False
            # half_open: one probe is already in flight — hold the rest back
            return False

    def record_success(self) -> None:
        with self._lock:
            self._transition("closed")
            self.failures = 0
            self.opened_at = None

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            if self.state == "half_open" or self.failures >= self.failure_threshold:
                self._transition("open")
                self.opened_at = self.clock()

    def state_code(self) -> int:
        """Numeric gauge value for the current state."""
        return self.STATE_CODES[self.state]

    def snapshot(self) -> dict:
        """JSON-able health view (state, failures, transition counts)."""
        with self._lock:
            return {
                "state": self.state,
                "state_code": self.STATE_CODES[self.state],
                "failures": self.failures,
                "opened_at": self.opened_at,
                "transitions": dict(self.transitions),
            }


_ROUTE_OF = {route.op: route for route in ROUTES}


class HTTPPolicyClient:
    """Blocking JSON/HTTP client for :class:`PolicyRestServer`.

    Transport errors and 5xx responses are retried per ``retry`` (4xx
    responses are the caller's bug and surface immediately); exhausted
    retries raise :class:`PolicyUnavailableError`.  An optional shared
    ``breaker`` short-circuits calls while the service is known-dead.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry or RetryPolicy(retries=0)
        self.breaker = breaker
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self._request_seq = 0
        self._request_lock = threading.Lock()

    def _next_request_id(self) -> str:
        """Client-generated request id, echoed back by the server (the
        ``X-Repro-Request-Id`` propagation of the REST spans)."""
        with self._request_lock:
            self._request_seq += 1
            return f"cli-{id(self) & 0xFFFF:04x}-{self._request_seq}"

    def _request(self, op: str, payload: Optional[dict] = None, arg=None, decode=json.loads):
        """Call operation ``op`` with the verb and path :data:`ROUTES`
        declares for it (``arg`` fills the path's typed segment), under
        the retry policy and the breaker."""
        route = _ROUTE_OF[op]
        url = self.base_url + route.url(arg)
        data = None if payload is None else json.dumps(payload).encode()
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            raise CircuitOpenError("policy service circuit is open")
        last_error: Optional[Exception] = None
        for attempt in range(self.retry.retries + 1):
            if attempt > 0:
                self._sleep(self.retry.delay_for(attempt - 1, self._rng))
            headers = {"X-Repro-Request-Id": self._next_request_id()}
            if data is not None:
                headers["Content-Type"] = "application/json"
            request = urllib.request.Request(
                url, data=data, headers=headers, method=route.verb
            )
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    result = decode(response.read())
            except urllib.error.HTTPError as exc:
                if exc.code < 500:
                    raise  # client error: retrying cannot help
                last_error = exc
            except (urllib.error.URLError, OSError) as exc:
                last_error = exc
            else:
                if breaker is not None:
                    breaker.record_success()
                return result
            if breaker is not None:
                breaker.record_failure()
                if not breaker.allow():
                    break  # tripped open mid-retry: stop hammering
        raise PolicyUnavailableError(
            f"policy service unreachable at {self.base_url}: {last_error}"
        ) from last_error

    # -- API ----------------------------------------------------------------
    def submit_transfers(self, workflow: str, job: str, transfers: list[dict]) -> list[TransferAdvice]:
        doc = self._request(
            "submit_transfers",
            {"workflow": workflow, "job": job, "transfers": transfers},
        )
        return [TransferAdvice.from_dict(a) for a in doc["advice"]]

    def complete_transfers(self, done: Iterable[int] = (), failed: Iterable[int] = ()) -> dict:
        return self._request(
            "complete_transfers", {"done": list(done), "failed": list(failed)}
        )

    def submit_cleanups(self, workflow: str, job: str, files: list[tuple[str, str]]) -> list[CleanupAdvice]:
        doc = self._request(
            "submit_cleanups",
            {
                "workflow": workflow,
                "job": job,
                "files": [{"lfn": lfn, "url": url} for lfn, url in files],
            },
        )
        return [CleanupAdvice.from_dict(a) for a in doc["advice"]]

    def complete_cleanups(self, ids: Iterable[int]) -> dict:
        return self._request("complete_cleanups", {"ids": list(ids)})

    def staging_state(self, lfn: str, url: str) -> str:
        return self._request("staging_state", {"lfn": lfn, "url": url})["state"]

    def transfer_state(self, tid: int) -> str:
        return self._request("transfer_state", arg=tid)["state"]

    def explain(self, tid: int) -> Optional[dict]:
        """The decision-provenance record for a transfer (None = unknown)."""
        try:
            return self._request("explain", arg=tid)
        except urllib.error.HTTPError as exc:
            if exc.code != 404:
                raise
            return None

    def register_priorities(self, workflow: str, priorities: dict) -> dict:
        return self._request(
            "register_priorities", {"workflow": workflow, "priorities": priorities}
        )

    def unregister_workflow(self, workflow: str, retain_staged: bool = False) -> dict:
        return self._request(
            "unregister_workflow", {"workflow": workflow, "retain_staged": retain_staged}
        )

    def reconcile_staged(self, workflow: str, files: Iterable[tuple]) -> dict:
        docs = []
        for lfn, url, *rest in files:
            doc = {"lfn": lfn, "url": url}
            if rest:
                doc["nbytes"] = rest[0]
            docs.append(doc)
        return self._request("reconcile_staged", {"workflow": workflow, "files": docs})

    def deny_host(self, host: str, direction: str = "any", reason: str = "") -> dict:
        return self._request(
            "deny_host", {"host": host, "direction": direction, "reason": reason}
        )

    def allow_host(self, host: str) -> dict:
        return self._request("allow_host", {"host": host})

    def set_quota(self, workflow: str, max_bytes: float) -> dict:
        return self._request("set_quota", {"workflow": workflow, "max_bytes": max_bytes})

    def register_tenant(self, tenant: str, **spec) -> dict:
        """``spec``: weight, priority_class, max_bytes, max_streams,
        max_concurrent (all optional)."""
        return self._request("register_tenant", {"tenant": tenant, **spec})

    def unregister_tenant(self, tenant: str) -> dict:
        return self._request("unregister_tenant", {"tenant": tenant})

    def bind_workflow(self, workflow: str, tenant: str) -> dict:
        return self._request("bind_workflow", {"workflow": workflow, "tenant": tenant})

    def tenants(self) -> list[dict]:
        return self._request("tenants")["tenants"]

    def catalog_census(self) -> dict:
        return self._request("catalog_census")

    def catalog_replicas(self, lfn: str) -> list[dict]:
        return self._request("catalog_replicas", arg=lfn)["replicas"]

    def set_site_capacity(self, site: str, capacity_bytes) -> dict:
        return self._request(
            "set_site_capacity", {"site": site, "capacity_bytes": capacity_bytes}
        )

    def catalog_pin(self, url: str, pinned: bool = True) -> dict:
        return self._request("catalog_pin", {"url": url, "pinned": pinned})

    def status(self) -> dict:
        return self._request("status")

    def metrics_text(self) -> str:
        return self._request("metrics_text", decode=bytes.decode)


class InProcessPolicyClient:
    """Simulation-side client: direct service calls + simulated latency.

    One method per :data:`~repro.policy.controller.ROUTES` operation,
    generated below the class, each taking the service method's
    arguments.  Every one is a generator to be driven with ``yield from``
    inside a DES process; each call costs ``latency`` seconds of simulated time
    (HTTP round trip + rule evaluation, the paper's service-call overhead).

    Fault injection hooks in through ``fault_gate``: a callable invoked
    with the method name *after* the latency is charged, raising
    :exc:`PolicyUnavailableError` to simulate a dead service or a dropped
    RPC.  Retries per ``retry`` cost simulated backoff time; exhausted
    retries (or an open ``breaker``) surface the error to the caller.
    """

    def __init__(
        self,
        service: PolicyService,
        env: Environment,
        latency: float = 0.05,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        fault_gate: Optional[Callable[[str], None]] = None,
        rng: Optional[random.Random] = None,
    ):
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.service = service
        self.env = env
        self.latency = latency
        self.retry = retry or RetryPolicy(retries=0)
        self.breaker = breaker
        self.fault_gate = fault_gate
        self._rng = rng
        self.calls = 0
        self.failed_calls = 0
        self.time_in_calls = 0.0

    if TYPE_CHECKING:  # the generated methods, for the type checker only

        def __getattr__(self, op: str) -> Callable[..., Generator]: ...

    def _charge(self):
        self.calls += 1
        self.time_in_calls += self.latency
        if self.latency > 0:
            yield self.env.timeout(self.latency)

    def _invoke(self, name: str, call: Callable[[], object]):
        tracer = self.env.tracer
        span = None
        if tracer is not None and tracer.enabled:
            # Client-side view of the rpc: covers the simulated latency
            # charge plus any retry backoff, unlike the service's span.
            span = tracer.begin("rpc", f"rpc:{name}", track="policy-client")
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            if tracer is not None:
                tracer.end(span, outcome="circuit_open")
            raise CircuitOpenError("policy service circuit is open")
        last_error: Optional[Exception] = None
        attempt = 0
        for attempt in range(self.retry.retries + 1):
            if attempt > 0:
                delay = self.retry.delay_for(attempt - 1, self._rng)
                if delay > 0:
                    yield self.env.timeout(delay)
            yield from self._charge()
            try:
                if self.fault_gate is not None:
                    self.fault_gate(name)
                result = call()
            except PolicyUnavailableError as exc:
                self.failed_calls += 1
                last_error = exc
            else:
                if breaker is not None:
                    breaker.record_success()
                if tracer is not None:
                    tracer.end(span, outcome="ok", attempts=attempt + 1)
                return result
            if breaker is not None:
                breaker.record_failure()
                if not breaker.allow():
                    break  # tripped open mid-retry: stop hammering
        if tracer is not None:
            tracer.end(span, outcome="unavailable", attempts=attempt + 1)
        raise PolicyUnavailableError(
            f"policy service unreachable ({name}): {last_error}"
        ) from last_error


def _materialized(value):
    """Iterable arguments are walked once, before the retry loop: a
    generator must not arrive exhausted at the second attempt."""
    if isinstance(value, (str, dict)) or not hasattr(value, "__iter__"):
        return value
    return list(value)


def _rpc(op: str, service_op: str):
    def method(self, *args, **kwargs):
        args = [_materialized(a) for a in args]
        kwargs = {k: _materialized(v) for k, v in kwargs.items()}
        return (
            yield from self._invoke(
                op, lambda: getattr(self.service, service_op)(*args, **kwargs)
            )
        )

    method.__name__ = op
    method.__qualname__ = f"InProcessPolicyClient.{op}"
    method.__doc__ = f"``PolicyService.{service_op}`` as a DES process generator."
    return method


# One generated method per operation of the wire surface, with the
# service method's own signature.
for _route in ROUTES:
    setattr(InProcessPolicyClient, _route.op, _rpc(_route.op, _route.service_op or _route.op))
