"""Edge-case tests for the DES kernel beyond the core happy paths."""

import pytest

from repro.des import AllOf, AnyOf, Environment, SimulationError


def test_any_of_failure_propagates():
    env = Environment()
    caught = []

    def failer():
        yield env.timeout(1)
        raise RuntimeError("first to finish fails")

    def waiter():
        try:
            yield AnyOf(env, [env.process(failer()), env.timeout(100)])
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter())
    env.run(until=50)
    assert caught == ["first to finish fails"]


def test_run_until_event_already_processed():
    env = Environment()

    def quick():
        yield env.timeout(1)
        return "done"

    p = env.process(quick())
    env.run()
    assert env.run(until=p) == "done"  # already processed: returns value


def test_run_until_event_that_can_never_fire():
    env = Environment()
    orphan = env.event()
    env.timeout(5)
    with pytest.raises(SimulationError, match="drained"):
        env.run(until=orphan)


def test_event_fail_then_defuse_via_waiter():
    env = Environment()
    gate = env.event()
    gate.defuse()
    gate.fail(RuntimeError("handled"))
    env.run()  # defused failure does not crash the run


def test_all_of_value_mapping_preserves_event_identity():
    env = Environment()
    seen = {}

    def proc():
        t1 = env.timeout(1, "one")
        t2 = env.timeout(2, "two")
        results = yield AllOf(env, [t1, t2])
        seen["t1"] = results[t1]
        seen["t2"] = results[t2]

    env.process(proc())
    env.run()
    assert seen == {"t1": "one", "t2": "two"}


def test_timeout_zero_fires_this_instant_in_order():
    env = Environment()
    order = []

    def a():
        yield env.timeout(0)
        order.append("a")

    def b():
        yield env.timeout(0)
        order.append("b")

    env.process(a())
    env.process(b())
    env.run()
    assert env.now == 0.0
    assert order == ["a", "b"]


def test_nested_process_failure_propagates_two_levels():
    env = Environment()

    def inner():
        yield env.timeout(1)
        raise ValueError("deep failure")

    def middle():
        yield env.process(inner())

    def outer():
        yield env.process(middle())

    p = env.process(outer())
    with pytest.raises(ValueError, match="deep failure"):
        env.run(until=p)


def test_a_nan_delay_is_refused_and_leaves_the_schedule_alone():
    env = Environment(initial_time=3.0)
    env.timeout(1.0)
    with pytest.raises(ValueError, match="got nan"):
        env.timeout(float("nan"))
    with pytest.raises(ValueError, match="got -1"):
        env.timeout(-1)
    with pytest.raises(ValueError, match=r"until=nan"):
        env.run(until=float("nan"))
    env.run()
    assert env.now == 4.0


def test_a_nan_runtime_fails_the_job_instead_of_the_clock():
    from repro.engine.scheduler import ClusterScheduler

    env = Environment()
    cluster = ClusterScheduler(env, slots=1)
    job = env.process(cluster.run_job(runtime=float("nan")))
    with pytest.raises(ValueError, match="got nan"):
        env.run(until=job)
    assert env.now == 0.0
