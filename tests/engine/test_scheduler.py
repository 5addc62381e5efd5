"""Unit tests for the cluster scheduler."""

import pytest

from repro.des import Environment
from repro.engine import ClusterScheduler


def test_validation():
    env = Environment()
    with pytest.raises(ValueError):
        ClusterScheduler(env, slots=0)
    with pytest.raises(ValueError):
        ClusterScheduler(env, slots=1, submit_overhead=-1)
    sched = ClusterScheduler(env, slots=1)

    def bad():
        yield from sched.run_job(-1)

    p = env.process(bad())
    with pytest.raises(ValueError):
        env.run(until=p)


def test_slots_limit_concurrency():
    env = Environment()
    sched = ClusterScheduler(env, slots=2, submit_overhead=0.0)
    ends = []

    def job(i):
        yield from sched.run_job(10.0)
        ends.append((i, env.now))

    for i in range(4):
        env.process(job(i))
    env.run()
    assert [t for _, t in ends] == [10.0, 10.0, 20.0, 20.0]


def test_submit_overhead_charged():
    env = Environment()
    sched = ClusterScheduler(env, slots=1, submit_overhead=0.5)

    def job():
        yield from sched.run_job(2.0)

    env.process(job())
    env.run()
    assert env.now == 2.5


def test_priority_order_under_contention():
    env = Environment()
    sched = ClusterScheduler(env, slots=1, submit_overhead=0.0)
    order = []

    def hold():
        yield from sched.run_job(5.0)

    def job(tag, prio):
        yield env.timeout(1.0)
        yield from sched.run_job(1.0, priority=prio)
        order.append(tag)

    env.process(hold())
    env.process(job("low", 0))
    env.process(job("high", 10))
    env.run()
    assert order == ["high", "low"]


def test_counters():
    env = Environment()
    sched = ClusterScheduler(env, slots=2, submit_overhead=0.0)

    def job():
        yield from sched.run_job(3.0)

    env.process(job())
    env.process(job())
    env.run()
    assert sched.jobs_run == 2
    assert sched.busy_time == pytest.approx(6.0)
    assert sched._pool.count == 0
