"""Unit tests for the DES kernel core (Environment, Event, Process)."""

import pytest

from repro.des import AllOf, AnyOf, Environment, SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=42.5)
    assert env.now == 42.5


def test_timeout_advances_clock():
    env = Environment()
    trace = []

    def proc():
        yield env.timeout(5)
        trace.append(env.now)
        yield env.timeout(2.5)
        trace.append(env.now)

    env.process(proc())
    env.run()
    assert trace == [5.0, 7.5]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_value_passthrough():
    env = Environment()
    got = []

    def proc():
        value = yield env.timeout(1, value="payload")
        got.append(value)

    env.process(proc())
    env.run()
    assert got == ["payload"]


def test_process_return_value():
    env = Environment()

    def proc():
        yield env.timeout(3)
        return "done"

    p = env.process(proc())
    result = env.run(until=p)
    assert result == "done"
    assert env.now == 3


def test_same_time_events_fifo_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(10)
        order.append(tag)

    for tag in range(5):
        env.process(proc(tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(3)

    env.process(proc())
    env.run(until=100)
    assert env.now == 100


def test_run_until_past_raises():
    env = Environment()
    env.run(until=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_run_empty_schedule_returns():
    env = Environment()
    env.run()  # no events: returns immediately
    assert env.now == 0.0


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    woke = []

    def waiter():
        value = yield gate
        woke.append((env.now, value))

    def trigger():
        yield env.timeout(4)
        gate.succeed("go")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert woke == [(4.0, "go")]


def test_event_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_event_fail_propagates_into_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger():
        yield env.timeout(1)
        gate.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_unhandled_process_failure_raises_from_run():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("unhandled")

    env.process(bad())
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_run_until_failing_process_reraises():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise KeyError("k")

    p = env.process(bad())
    with pytest.raises(KeyError):
        env.run(until=p)


def test_waiting_on_already_fired_event():
    env = Environment()
    results = []

    def early():
        yield env.timeout(1)
        return "early-result"

    def late(target):
        yield env.timeout(10)
        value = yield target
        results.append((env.now, value))

    p = env.process(early())
    env.process(late(p))
    env.run()
    assert results == [(10.0, "early-result")]


def test_process_chain_waits_for_subprocess():
    env = Environment()
    trace = []

    def child():
        yield env.timeout(5)
        trace.append(("child", env.now))
        return 99

    def parent():
        value = yield env.process(child())
        trace.append(("parent", env.now, value))

    env.process(parent())
    env.run()
    assert trace == [("child", 5.0), ("parent", 5.0, 99)]


def test_yield_non_event_raises():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError, match="must yield Event"):
        env.run()


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_removed_kernel_names_are_gone():
    with pytest.raises(ImportError):
        from repro.des import Interrupt  # noqa: F401
    env = Environment()

    def proc():
        yield env.timeout(1)

    with pytest.raises(AttributeError):
        env.process(proc()).interrupt()
    with pytest.raises(AttributeError):
        env.active_process
    with pytest.raises(AttributeError):
        env.event().trigger(env.event())


def test_all_of_waits_for_every_event():
    env = Environment()
    done = []

    def proc():
        t1, t2, t3 = env.timeout(1, "a"), env.timeout(5, "b"), env.timeout(3, "c")
        results = yield AllOf(env, [t1, t2, t3])
        done.append((env.now, sorted(results.values())))

    env.process(proc())
    env.run()
    assert done == [(5.0, ["a", "b", "c"])]


def test_any_of_fires_on_first():
    env = Environment()
    done = []

    def proc():
        t1, t2 = env.timeout(9, "slow"), env.timeout(2, "fast")
        results = yield AnyOf(env, [t1, t2])
        done.append((env.now, list(results.values())))

    env.process(proc())
    env.run(until=20)
    assert done == [(2.0, ["fast"])]


def test_all_of_empty_fires_immediately():
    env = Environment()
    done = []

    def proc():
        results = yield AllOf(env, [])
        done.append((env.now, results))

    env.process(proc())
    env.run()
    assert done == [(0.0, {})]


def test_all_of_fails_fast():
    env = Environment()
    caught = []

    def failer():
        yield env.timeout(1)
        raise RuntimeError("child failed")

    def proc():
        try:
            yield AllOf(env, [env.process(failer()), env.timeout(100)])
        except RuntimeError as exc:
            caught.append((env.now, str(exc)))

    env.process(proc())
    env.run(until=200)
    assert caught == [(1.0, "child failed")]


def test_condition_rejects_cross_environment_events():
    env1, env2 = Environment(), Environment()
    with pytest.raises(SimulationError):
        AllOf(env1, [env2.timeout(1)])


def test_deterministic_replay():
    """Two identical simulations produce identical traces."""

    def build():
        env = Environment()
        trace = []

        def worker(i):
            for step in range(3):
                yield env.timeout(i + step)
                trace.append((env.now, i, step))

        for i in range(4):
            env.process(worker(i))
        env.run()
        return trace

    assert build() == build()
