"""Property-based tests of the DES kernel (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Resource


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=30))
def test_time_never_goes_backwards(delays):
    env = Environment()
    observed = []

    def proc(delay):
        yield env.timeout(delay)
        observed.append(env.now)

    for d in delays:
        env.process(proc(d))
    env.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(delays=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=20))
def test_makespan_equals_max_delay(delays):
    env = Environment()
    for d in delays:
        env.timeout(d)
    env.run()
    assert env.now == max(delays)


@given(
    durations=st.lists(st.floats(min_value=0.1, max_value=10), min_size=1, max_size=20),
    capacity=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=50)
def test_resource_never_exceeds_capacity_and_serves_everyone(durations, capacity):
    env = Environment()
    res = Resource(env, capacity=capacity)
    served = []
    max_in_use = [0]

    def user(i, duration):
        req = res.request()
        yield req
        max_in_use[0] = max(max_in_use[0], res.count)
        yield env.timeout(duration)
        res.release(req)
        served.append(i)

    for i, d in enumerate(durations):
        env.process(user(i, d))
    env.run()
    assert max_in_use[0] <= capacity
    assert sorted(served) == list(range(len(durations)))


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=25)
def test_simulation_replay_determinism(seed, n):
    """Identical inputs produce identical event traces."""

    def run_once():
        env = Environment()
        trace = []

        def worker(i):
            delay = (seed % 97 + i * 13) % 29 + 0.5
            for _ in range(3):
                yield env.timeout(delay)
                trace.append((round(env.now, 9), i))

        for i in range(n):
            env.process(worker(i))
        env.run()
        return trace

    assert run_once() == run_once()
