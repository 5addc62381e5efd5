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

The HTTP transport (``http.client``, which loads ``ssl`` and ``email``) is
imported when an :class:`HTTPPolicyClient` first dials, not with this
module: a simulation imports this module for its in-process client only.
"""

from __future__ import annotations

import io
import json
import random
import threading
import time
from dataclasses import dataclass
from inspect import Parameter, Signature
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional
from urllib.parse import urlsplit

from repro.policy.controller import REQUIRED, ROUTES, Route
from repro.policy.service import PolicyService

if TYPE_CHECKING:
    import http.client
    import select
    import urllib.error

    from repro.des.core import Environment

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


class HTTPPolicyClient:
    """Blocking JSON/HTTP client for :class:`PolicyRestServer`.

    One method per :data:`~repro.policy.controller.ROUTES` operation,
    generated below the class, each taking the service method's
    arguments and returning what the service method returns (a record
    the server answers 404 for is ``None``).

    Transport errors and 5xx responses are retried per ``retry`` (4xx
    responses are the caller's bug and surface immediately); exhausted
    retries raise :class:`PolicyUnavailableError`.  An optional shared
    ``breaker`` short-circuits calls while the service is known-dead.

    Each calling thread keeps **one persistent connection**, dialled on
    its first call and reopened on demand, so a client may be shared
    between threads.  A connection the server closed while it sat idle
    is noticed *before* the next request is written — never by sending
    the request a second time.  :meth:`close` (or leaving a ``with``
    block) closes the calling thread's connection; another thread's is
    closed when that thread's local storage is collected.
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
        self._address = urlsplit(self.base_url)
        self.timeout = timeout
        self.retry = retry or RetryPolicy(retries=0)
        self.breaker = breaker
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self._request_seq = 0
        self._request_lock = threading.Lock()
        self._local = threading.local()  # .connection: the calling thread's

    if TYPE_CHECKING:  # the generated methods, for the type checker only

        def __getattr__(self, op: str) -> Callable[..., Any]: ...

    def close(self) -> None:
        """Close the calling thread's connection; the next call redials."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()

    def __enter__(self) -> "HTTPPolicyClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _next_request_id(self) -> str:
        """Client-generated request id, echoed back by the server (the
        ``X-Repro-Request-Id`` propagation of the REST spans)."""
        with self._request_lock:
            self._request_seq += 1
            return f"cli-{id(self) & 0xFFFF:04x}-{self._request_seq}"

    def _exchange(self, verb: str, path: str, data: Optional[bytes], headers: dict):
        """One request and its whole response on the calling thread's
        connection: ``(response, body)``.  Any failure closes the
        connection, so the next exchange starts on a new one."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = _dial(self._address.netloc, self.timeout)
        elif connection.sock is not None and select.select([connection.sock], [], [], 0)[0]:
            # Readable with no request outstanding: the server closed it
            # while it sat idle.  Redial *before* writing — a request
            # resent after a failed write could be applied twice.
            connection.close()
        try:
            connection.request(verb, path, body=data, headers=headers)
            response = connection.getresponse()
            return response, response.read()
        except BaseException:
            connection.close()
            raise

    def _request(self, route: Route, values: dict):
        """One request with the verb and path ``route`` declares, under
        the retry policy and the breaker.  ``values`` are its fields by
        wire key: a POST's JSON body, a GET's typed path segment.  Returns
        the response document: decoded JSON, ``str`` for a text response,
        ``None`` where the server has no record for the segment."""
        segment = next(iter(values.values()), None) if route.verb == "GET" else None
        target = route.url(segment)
        data = None if route.verb == "GET" else json.dumps(values).encode()
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
            try:
                response, body = self._exchange(
                    route.verb, self._address.path + target, data, headers
                )
                if response.status >= 400:
                    raise urllib.error.HTTPError(
                        self.base_url + target, response.status, response.reason,
                        response.headers, io.BytesIO(body),
                    )
                as_json = response.headers.get_content_type() == "application/json"
                result = json.loads(body) if as_json else body.decode()
            except urllib.error.HTTPError as exc:
                if exc.code == 404 and segment is not None:
                    return None
                if exc.code < 500:
                    raise  # client error: retrying cannot help
                last_error = exc
            except (OSError, http.client.HTTPException) as exc:
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


def _dial(netloc: str, timeout: float) -> http.client.HTTPConnection:
    """A calling thread's connection, made on its first request.  The
    transport modules are imported here and bound as this module's
    globals, which :meth:`HTTPPolicyClient._exchange` and ``_request``
    read from then on."""
    global http, select, urllib
    import http.client
    import select
    import urllib.error

    return http.client.HTTPConnection(netloc, timeout=timeout)


def _http(route: Route):
    signature = Signature([
        Parameter(field.arg or field.name, Parameter.POSITIONAL_OR_KEYWORD,
                  default=Parameter.empty if field.default is REQUIRED else field.default)
        for field in route.fields
    ])

    def method(self, *args, **kwargs):
        # Bound as the service method binds them.  An argument left to
        # its default stays out of the request: the server applies it.
        given = signature.bind(*args, **kwargs).arguments
        doc = self._request(route, {
            field.name: getattr(field.check, "to_wire", _materialized)(given[keyword])
            for keyword, field in zip(signature.parameters, route.fields) if keyword in given
        })
        if doc is None or (route.echo and not route.result):
            return None  # no such record; the service returns nothing
        value = doc[route.result] if route.result else doc
        return [route.advice.from_dict(item) for item in value] if route.advice else value

    method.__name__ = route.op
    method.__qualname__ = f"HTTPPolicyClient.{route.op}"
    method.__doc__ = f"``PolicyService.{route.service_op or route.op}`` over HTTP."
    return method


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
        if tracer.enabled:
            # Client-side view of the rpc: covers the simulated latency
            # charge plus any retry backoff, unlike the service's span.
            span = tracer.begin("rpc", f"rpc:{name}", track="policy-client")
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            if span is not None:
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
            except Exception as exc:
                # A domain error (a refusal, a bad argument) is the
                # service's answer, not an outage: no retry, breaker untouched.
                if span is not None:
                    tracer.end(span, outcome="error", error=type(exc).__name__)
                raise
            else:
                if breaker is not None:
                    breaker.record_success()
                if span is not None:
                    tracer.end(span, outcome="ok", attempts=attempt + 1)
                return result
            if breaker is not None:
                breaker.record_failure()
                if not breaker.allow():
                    break  # tripped open mid-retry: stop hammering
        if span is not None:
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


# One generated method per operation of the wire surface and client,
# with the service method's own signature.
for _route in ROUTES:
    setattr(HTTPPolicyClient, _route.op, _http(_route))
    setattr(InProcessPolicyClient, _route.op, _rpc(_route.op, _route.service_op or _route.op))
