"""Unit tests for DES resources (Resource, PriorityResource)."""

import gc
import weakref

import pytest

from repro.des import Environment, PriorityResource, Resource, resources


# ---------------------------------------------------------------- Resource
def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    holders = []

    def user(i):
        req = res.request()
        yield req
        holders.append((env.now, i))
        yield env.timeout(10)
        res.release(req)

    for i in range(4):
        env.process(user(i))
    env.run()
    # Users 0,1 start at t=0; 2,3 wait until a slot frees at t=10.
    assert holders == [(0.0, 0), (0.0, 1), (10.0, 2), (10.0, 3)]


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(i):
        req = yield res.request()
        order.append(i)
        yield env.timeout(1)
        res.release(req)

    # Stagger arrival so queue order is deterministic by arrival.
    def spawner():
        for i in range(5):
            env.process(user(i))
            yield env.timeout(0)

    env.process(spawner())
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_resource_counts():
    env = Environment()
    res = Resource(env, capacity=2)

    def holder():
        yield res.request()
        yield env.timeout(100)

    for _ in range(3):
        env.process(holder())
    env.run(until=1)
    assert res.count == 2
    assert res.queued == 1


def test_a_released_request_is_freed_by_reference_counting(monkeypatch):
    class WeakRequest(resources.Request):
        __slots__ = ("__weakref__",)

    monkeypatch.setattr(resources, "Request", WeakRequest)
    env = Environment()
    res = Resource(env)
    refs = []

    def user():
        req = yield res.request()  # a grant's value is the request itself
        assert type(req) is WeakRequest and req in res._users
        refs.append(weakref.ref(req))
        yield env.timeout(1)
        res.release(req)

    gc.disable()
    try:
        env.process(user())
        env.run()
        assert refs and refs[0]() is None
    finally:
        gc.enable()


def test_resource_cancel_waiting_request():
    env = Environment()
    res = Resource(env, capacity=1)
    got = []

    def holder():
        req = res.request()
        yield req
        yield env.timeout(50)
        res.release(req)

    def impatient():
        req = res.request()
        yield env.timeout(5)  # still waiting
        assert not req.triggered
        res.release(req)
        got.append("gave-up")

    def patient():
        yield env.timeout(1)
        yield res.request()
        got.append(("served", env.now))

    env.process(holder())
    env.process(impatient())
    env.process(patient())
    env.run()
    assert "gave-up" in got
    assert ("served", 50.0) in got


def test_priority_resource_serves_low_priority_value_first():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder():
        req = res.request()
        yield req
        yield env.timeout(10)
        res.release(req)

    def user(tag, prio):
        yield env.timeout(1)
        req = res.request(priority=prio)
        yield req
        order.append(tag)
        res.release(req)

    env.process(holder())
    env.process(user("low-urgency", 5))
    env.process(user("high-urgency", 1))
    env.process(user("mid-urgency", 3))
    env.run(until=100)
    assert order == ["high-urgency", "mid-urgency", "low-urgency"]
