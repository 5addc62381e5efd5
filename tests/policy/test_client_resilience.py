"""Client resilience: retry backoff, circuit breaker, fault-gated calls."""

import random

import pytest

from repro.des.core import Environment
from repro.obs.tracer import Tracer
from repro.policy import (
    CircuitBreaker,
    CircuitOpenError,
    InProcessPolicyClient,
    PolicyConfig,
    PolicyRefusedError,
    PolicyService,
    PolicyUnavailableError,
    RetryPolicy,
)
from repro.policy.client import HTTPPolicyClient

from tests.policy.conftest import spec


# -- RetryPolicy ------------------------------------------------------------


def test_backoff_doubles_and_caps():
    policy = RetryPolicy(retries=5, base_delay=1.0, multiplier=2.0, max_delay=5.0, jitter=0.0)
    assert [policy.delay_for(n) for n in range(5)] == [1.0, 2.0, 4.0, 5.0, 5.0]


def test_jitter_inflates_within_bounds():
    policy = RetryPolicy(base_delay=1.0, jitter=0.5)
    rng = random.Random(7)
    for n in range(20):
        delay = policy.delay_for(0, rng)
        assert 1.0 <= delay <= 1.5


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)


# -- CircuitBreaker ---------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_breaker_trips_after_consecutive_failures():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout=10.0, clock=clock)
    assert breaker.allow()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "closed"
    breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()


def test_success_resets_failure_count():
    breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == "closed"


def test_half_open_probe_after_timeout():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
    breaker.record_failure()
    assert not breaker.allow()

    clock.now = 10.0
    assert breaker.allow()  # the probe
    assert breaker.state == "half_open"
    assert not breaker.allow()  # others held back while the probe flies


def test_half_open_success_closes():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
    breaker.record_failure()
    clock.now = 10.0
    breaker.allow()
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.allow()


def test_half_open_failure_reopens():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=5, reset_timeout=10.0, clock=clock)
    breaker.record_failure()
    breaker.failures = 5
    breaker.state = "open"
    breaker.opened_at = 0.0
    clock.now = 10.0
    breaker.allow()
    breaker.record_failure()  # a single half-open failure re-opens
    assert breaker.state == "open"
    assert breaker.opened_at == 10.0
    clock.now = 15.0
    assert not breaker.allow()


# -- InProcessPolicyClient with faults --------------------------------------


def run_process(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


def make_client(env, fault_gate=None, retry=None, breaker=None):
    service = PolicyService(PolicyConfig(policy="greedy"))
    return InProcessPolicyClient(
        service,
        env,
        latency=0.05,
        retry=retry,
        breaker=breaker,
        fault_gate=fault_gate,
        rng=None,
    )


def test_retry_succeeds_after_transient_faults():
    env = Environment()
    failures = {"left": 2}

    def gate(name):
        if failures["left"] > 0:
            failures["left"] -= 1
            raise PolicyUnavailableError("injected")

    client = make_client(
        env, gate, retry=RetryPolicy(retries=3, base_delay=1.0, jitter=0.0)
    )
    advice = run_process(
        env, client.submit_transfers("wf1", "j1", [spec("a")])
    )
    assert advice[0].action == "transfer"
    assert client.failed_calls == 2
    # 3 attempts at 0.05s latency each + backoff delays of 1s and 2s.
    assert env.now == pytest.approx(0.05 * 3 + 1.0 + 2.0)


def test_exhausted_retries_raise():
    env = Environment()

    def gate(name):
        raise PolicyUnavailableError("service down")

    client = make_client(
        env, gate, retry=RetryPolicy(retries=2, base_delay=1.0, jitter=0.0)
    )
    with pytest.raises(PolicyUnavailableError):
        run_process(env, client.submit_transfers("wf1", "j1", [spec("a")]))
    assert client.failed_calls == 3  # initial + 2 retries


def test_breaker_trip_stops_retrying():
    env = Environment()

    def gate(name):
        raise PolicyUnavailableError("service down")

    breaker = CircuitBreaker(failure_threshold=2, reset_timeout=100.0, clock=lambda: env.now)
    client = make_client(
        env, gate, retry=RetryPolicy(retries=10, base_delay=1.0, jitter=0.0), breaker=breaker
    )
    with pytest.raises(PolicyUnavailableError):
        run_process(env, client.submit_transfers("wf1", "j1", [spec("a")]))
    # The breaker opened after 2 failures; the remaining 9 retries were skipped.
    assert client.failed_calls == 2
    assert breaker.state == "open"

    # Subsequent calls are refused outright without touching the service.
    with pytest.raises(CircuitOpenError):
        run_process(env, client.transfer_state(1))
    assert client.calls == 2  # no new attempt was charged


def test_breaker_recovers_when_service_returns():
    env = Environment()
    down = {"value": True}

    def gate(name):
        if down["value"]:
            raise PolicyUnavailableError("service down")

    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=30.0, clock=lambda: env.now)
    client = make_client(env, gate, breaker=breaker)

    def scenario():
        try:
            yield from client.transfer_state(1)
        except PolicyUnavailableError:
            pass
        assert breaker.state == "open"
        down["value"] = False  # service comes back, but the breaker is open
        try:
            yield from client.transfer_state(1)
        except CircuitOpenError:
            pass
        yield env.timeout(31.0)  # past reset_timeout: half_open probe allowed
        return (yield from client.transfer_state(1))

    proc = env.process(scenario())
    env.run()
    assert proc.value == "unknown"
    assert breaker.state == "closed"


def test_domain_error_closes_its_rpc_span_and_spares_the_breaker():
    """A refusal used to leave its ``rpc:`` span open: only the next
    call's span reached the trace."""
    tracer = Tracer()
    env = Environment(tracer=tracer)
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=30.0, clock=lambda: env.now)
    client = make_client(env, breaker=breaker)

    def scenario():
        with pytest.raises(PolicyRefusedError):
            yield from client.bind_workflow("wf", "nobody")
        yield from client.transfer_state(1)

    run_process(env, scenario())
    assert [(s["name"], s["args"]) for s in tracer.spans() if s["cat"] == "rpc"] == [
        ("rpc:bind_workflow", {"outcome": "error", "error": "PolicyRefusedError"}),
        ("rpc:transfer_state", {"outcome": "ok", "attempts": 1}),
    ]
    assert breaker.state == "closed" and breaker.failures == 0
    assert client.failed_calls == 0


# -- HTTPPolicyClient against a dead endpoint --------------------------------


def test_http_client_retries_then_raises():
    sleeps = []
    client = HTTPPolicyClient(
        "http://127.0.0.1:1",  # nothing listens on port 1
        timeout=0.2,
        retry=RetryPolicy(retries=2, base_delay=0.5, jitter=0.0),
        sleep=sleeps.append,
    )
    with pytest.raises(PolicyUnavailableError):
        client.status()
    assert sleeps == [0.5, 1.0]


def test_http_client_circuit_open_is_immediate():
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=100.0, clock=FakeClock())
    breaker.record_failure()
    client = HTTPPolicyClient("http://127.0.0.1:1", breaker=breaker)
    with pytest.raises(CircuitOpenError):
        client.status()
