"""Unit tests for the DAGMan-like executor."""

import pytest

from repro.des import Environment
from repro.engine import DAGMan
from repro.obs.tracer import Tracer
from repro.planner.executable import ExecutableJob, ExecutableWorkflow, JobKind


def make_plan(edges, kinds=None):
    plan = ExecutableWorkflow("w", "w#1")
    nodes = {n for e in edges for n in e} if edges else set()
    for node in sorted(nodes):
        kind = (kinds or {}).get(node, JobKind.COMPUTE)
        plan.add_job(ExecutableJob(id=node, kind=kind, transform="t"))
    for parent, child in edges:
        plan.add_edge(parent, child)
    return plan


def timed_runner(env, durations, trace=None):
    def runner(workflow_id, job):
        if trace is not None:
            trace.append((env.now, job.id, "start"))
        yield env.timeout(durations.get(job.id, 1.0))
        if trace is not None:
            trace.append((env.now, job.id, "end"))

    return runner


def run_dagman(env, dagman):
    p = env.process(dagman.run())
    return env.run(until=p)


def test_dependency_order_respected():
    env = Environment()
    trace = []
    plan = make_plan([("a", "b"), ("b", "c"), ("a", "c")])
    runner = timed_runner(env, {"a": 5, "b": 3, "c": 1}, trace)
    result = run_dagman(env, DAGMan(env, plan, {JobKind.COMPUTE: runner}))
    assert result.success
    starts = {j: t for t, j, e in trace if e == "start"}
    assert starts["a"] == 0
    assert starts["b"] == 5
    assert starts["c"] == 8
    assert result.makespan == 9


def test_parallel_jobs_run_concurrently():
    env = Environment()
    plan = ExecutableWorkflow("w", "w#1")
    for i in range(5):
        plan.add_job(ExecutableJob(id=f"j{i}", kind=JobKind.COMPUTE, transform="t"))
    runner = timed_runner(env, {})
    result = run_dagman(env, DAGMan(env, plan, {JobKind.COMPUTE: runner}))
    assert result.makespan == pytest.approx(1.0)


def test_throttle_limits_category_concurrency():
    env = Environment()
    plan = ExecutableWorkflow("w", "w#1")
    for i in range(6):
        plan.add_job(ExecutableJob(id=f"s{i}", kind=JobKind.STAGE_IN))
    runner = timed_runner(env, {})
    dagman = DAGMan(
        env, plan, {JobKind.STAGE_IN: runner}, throttles={JobKind.STAGE_IN: 2}
    )
    result = run_dagman(env, dagman)
    assert result.makespan == pytest.approx(3.0)  # 6 jobs, 2 at a time, 1s each


def test_throttle_applies_only_to_its_kind():
    env = Environment()
    plan = ExecutableWorkflow("w", "w#1")
    for i in range(3):
        plan.add_job(ExecutableJob(id=f"s{i}", kind=JobKind.STAGE_IN))
        plan.add_job(ExecutableJob(id=f"c{i}", kind=JobKind.COMPUTE, transform="t"))
    runner = timed_runner(env, {})
    dagman = DAGMan(
        env,
        plan,
        {JobKind.STAGE_IN: runner, JobKind.COMPUTE: runner},
        throttles={JobKind.STAGE_IN: 1},
    )
    result = run_dagman(env, dagman)
    assert result.makespan == pytest.approx(3.0)
    computes = result.by_kind(JobKind.COMPUTE)
    assert all(r.t_start == 0 for r in computes)  # computes unthrottled


def test_priority_breaks_throttle_queue_ties():
    env = Environment()
    plan = ExecutableWorkflow("w", "w#1")
    plan.add_job(ExecutableJob(id="low", kind=JobKind.STAGE_IN, priority=1))
    plan.add_job(ExecutableJob(id="high", kind=JobKind.STAGE_IN, priority=9))
    order = []

    def runner(workflow_id, job):
        order.append(job.id)
        yield env.timeout(1.0)

    dagman = DAGMan(env, plan, {JobKind.STAGE_IN: runner}, throttles={JobKind.STAGE_IN: 1})
    run_dagman(env, dagman)
    assert order == ["high", "low"]


def test_retries_then_success():
    env = Environment()
    plan = make_plan([("a", "b")])
    attempts = {"a": 0}

    def runner(workflow_id, job):
        yield env.timeout(1.0)
        if job.id == "a":
            attempts["a"] += 1
            if attempts["a"] <= 2:
                raise RuntimeError("flaky")

    result = run_dagman(env, DAGMan(env, plan, {JobKind.COMPUTE: runner}, retries=5))
    assert result.success
    assert result.records["a"].attempts == 3
    assert result.records["b"].state == "done"


def test_retries_exhausted_fails_workflow():
    env = Environment()
    plan = make_plan([("a", "b")])

    def runner(workflow_id, job):
        yield env.timeout(1.0)
        if job.id == "a":
            raise RuntimeError("always broken")

    result = run_dagman(env, DAGMan(env, plan, {JobKind.COMPUTE: runner}, retries=2))
    assert not result.success
    assert "always broken" in result.failure
    assert result.records["a"].state == "failed"
    assert result.records["a"].attempts == 3  # 1 try + 2 retries
    assert result.records["b"].state == "pending"  # never released


def test_job_records_timing():
    env = Environment()
    plan = make_plan([("a", "b")])
    runner = timed_runner(env, {"a": 4, "b": 2})
    result = run_dagman(env, DAGMan(env, plan, {JobKind.COMPUTE: runner}))
    rec_b = result.records["b"]
    assert rec_b.t_ready == 4
    assert rec_b.t_start == 4
    assert rec_b.t_end == 6
    assert rec_b.duration == 2


def test_validation():
    env = Environment()
    plan = make_plan([("a", "b")])
    with pytest.raises(ValueError, match="no runner"):
        DAGMan(env, plan, {})
    runner = timed_runner(env, {})
    with pytest.raises(ValueError):
        DAGMan(env, plan, {JobKind.COMPUTE: runner}, retries=-1)
    with pytest.raises(ValueError):
        DAGMan(env, plan, {JobKind.COMPUTE: runner}, throttles={JobKind.COMPUTE: 0})
    # A NaN backoff used to pass and then skip every retry's wait.
    for backoff in ({"retry_backoff": float("nan")}, {"retry_backoff_max": float("nan")}):
        with pytest.raises(ValueError, match="nan"):
            DAGMan(env, plan, {JobKind.COMPUTE: runner}, **backoff)


def test_retry_backoff_spaces_out_attempts():
    env = Environment()
    plan = make_plan([("a", "b")])
    starts = []

    def runner(workflow_id, job):
        if job.id == "a":
            starts.append(env.now)
        yield env.timeout(1.0)
        if job.id == "a" and len(starts) <= 2:
            raise RuntimeError("flaky")

    dagman = DAGMan(
        env, plan, {JobKind.COMPUTE: runner}, retries=5, retry_backoff=10.0, rng=None
    )
    result = run_dagman(env, dagman)
    assert result.success
    # Attempt 1 at t=0 fails at t=1, waits 10; attempt 2 at t=11 fails at
    # t=12, waits 20; attempt 3 at t=32 succeeds.
    assert starts == [0.0, 11.0, 32.0]
    assert result.records["b"].t_start == 33.0


def test_retry_backoff_is_capped():
    env = Environment()
    plan = make_plan([("a", "b")])
    starts = []

    def runner(workflow_id, job):
        if job.id == "a":
            starts.append(env.now)
        yield env.timeout(1.0)
        if job.id == "a" and len(starts) <= 3:
            raise RuntimeError("flaky")

    dagman = DAGMan(
        env,
        plan,
        {JobKind.COMPUTE: runner},
        retries=5,
        retry_backoff=10.0,
        retry_backoff_max=15.0,
        rng=None,
    )
    result = run_dagman(env, dagman)
    assert result.success
    # Delays: 10, 15 (capped from 20), 15 (capped from 40).
    assert starts == [0.0, 11.0, 27.0, 43.0]


def test_retry_jitter_inflates_delay():
    import random

    env = Environment()
    plan = make_plan([("a", "b")])
    starts = []

    def runner(workflow_id, job):
        if job.id == "a":
            starts.append(env.now)
        yield env.timeout(1.0)
        if job.id == "a" and len(starts) == 1:
            raise RuntimeError("flaky")

    dagman = DAGMan(
        env,
        plan,
        {JobKind.COMPUTE: runner},
        retries=5,
        retry_backoff=10.0,
        retry_jitter=0.5,
        rng=random.Random(3),
    )
    result = run_dagman(env, dagman)
    assert result.success
    delay = starts[1] - 1.0
    assert 10.0 <= delay <= 15.0
    assert delay != 10.0  # jitter actually moved it


def test_zero_backoff_retries_immediately():
    env = Environment()
    plan = make_plan([("a", "b")])
    starts = []

    def runner(workflow_id, job):
        if job.id == "a":
            starts.append(env.now)
        yield env.timeout(1.0)
        if job.id == "a" and len(starts) == 1:
            raise RuntimeError("flaky")

    result = run_dagman(env, DAGMan(env, plan, {JobKind.COMPUTE: runner}, retries=5))
    assert result.success
    assert starts == [0.0, 1.0]  # default keeps the seed's immediate-retry behavior


def test_backoff_validation():
    env = Environment()
    plan = make_plan([("a", "b")])
    runner = timed_runner(env, {})
    with pytest.raises(ValueError):
        DAGMan(env, plan, {JobKind.COMPUTE: runner}, retry_backoff=-1.0)
    with pytest.raises(ValueError):
        DAGMan(env, plan, {JobKind.COMPUTE: runner}, retry_jitter=2.0)


# ---------------------------------------------------------------------------
# Engine contract: a job's process exists from release to completion, and
# readiness and runner completion are each one NORMAL scheduling step.  The
# literals below were recorded at 276e308 (parked job processes + run-*
# processes) and must not move.


def test_no_job_process_is_spawned_before_its_job_is_ready():
    env = Environment()
    plan = make_plan([(f"j{i:03d}", f"j{i + 1:03d}") for i in range(199)])
    spawned, at_first_finish = [], []

    def runner(workflow_id, job):
        yield env.timeout(1.0)
        if not at_first_finish:
            at_first_finish.append(list(spawned))

    done = env.process(DAGMan(env, plan, {JobKind.COMPUTE: runner}).run())
    real_process = env.process

    def counting_process(generator, name=""):
        spawned.append(name)
        return real_process(generator, name)

    env.process = counting_process
    result = env.run(until=done)
    assert result.success and result.makespan == 200.0
    assert at_first_finish == [["job-j000"]]  # 276e308: 200 job-* and one run-*
    assert spawned == [f"job-j{i:03d}" for i in range(200)]


def test_same_instant_releases_keep_their_order():
    tracer = Tracer()
    env = Environment(tracer=tracer)
    # b and c end together at t=3 and release stage-outs onto one throttle slot.
    plan = make_plan(
        [("a", "b"), ("a", "c"), ("b", "x1"), ("b", "x2"), ("c", "x0"), ("c", "x3"),
         ("x0", "d"), ("x1", "d"), ("x2", "d"), ("x3", "d")],
        kinds={f"x{i}": JobKind.STAGE_OUT for i in range(4)},
    )
    plan.jobs["x3"].priority = 5
    trace = []
    runner = timed_runner(env, {"a": 1, "b": 2, "c": 2}, trace)
    dagman = DAGMan(
        env, plan, {JobKind.COMPUTE: runner, JobKind.STAGE_OUT: runner},
        throttles={JobKind.STAGE_OUT: 1},
    )
    result = run_dagman(env, dagman)
    order = ["a", "b", "c", "x3", "x1", "x2", "x0", "d"]
    assert [j for _, j, e in trace if e == "start"] == order
    assert {j: (r.t_ready, r.t_start, r.t_end) for j, r in result.records.items()} == {
        "a": (0.0, 0.0, 1.0), "b": (1.0, 1.0, 3.0), "c": (1.0, 1.0, 3.0),
        "x3": (3.0, 3.0, 4.0), "x1": (3.0, 4.0, 5.0), "x2": (3.0, 5.0, 6.0),
        "x0": (3.0, 6.0, 7.0), "d": (7.0, 7.0, 8.0),
    }
    assert [s["name"] for s in tracer.spans() if s["cat"] == "dagman"] == [
        f"job:{j}" for j in order
    ]
    assert [
        (e["ts"], e["args"]["job"]) for e in tracer.events if e["name"] == "dagman.throttled"
    ] == [(4.0, "x1"), (5.0, "x2"), (6.0, "x0")]


def flaky_beside_sibling(retries, retry_backoff, failures):
    """``a`` fails ``failures`` times; sibling ``b`` ends when ``a`` first fails."""
    env = Environment()
    plan = make_plan([("a", "z"), ("b", "y"), ("b", "z")])
    steps, tries = [], []

    def runner(workflow_id, job):
        steps.append((env.now, job.id, "start"))
        yield env.timeout(1.0)
        if job.id == "a":
            tries.append(env.now)
            if len(tries) <= failures:
                steps.append((env.now, job.id, "raise"))
                raise RuntimeError("flaky")
        steps.append((env.now, job.id, "end"))

    dagman = DAGMan(
        env, plan, {JobKind.COMPUTE: runner}, retries=retries, retry_backoff=retry_backoff
    )
    result = run_dagman(env, dagman)
    records = {j: (r.attempts, r.t_ready, r.t_end, r.state) for j, r in result.records.items()}
    return result, records, steps


def test_retry_takes_its_step_beside_a_sibling_finishing_at_the_same_instant():
    result, records, steps = flaky_beside_sibling(retries=5, retry_backoff=0.0, failures=2)
    assert result.success and result.makespan == 4.0
    assert records == {
        "a": (3, 0.0, 3.0, "done"), "b": (1, 0.0, 1.0, "done"),
        "y": (1, 1.0, 2.0, "done"), "z": (1, 3.0, 4.0, "done"),
    }
    assert steps == [
        (0.0, "a", "start"), (0.0, "b", "start"),
        # b's end is handled before a's failure restarts a, and a restarts
        # before b's child starts
        (1.0, "a", "raise"), (1.0, "b", "end"), (1.0, "a", "start"), (1.0, "y", "start"),
        (2.0, "a", "raise"), (2.0, "y", "end"), (2.0, "a", "start"),
        (3.0, "a", "end"), (3.0, "z", "start"), (4.0, "z", "end"),
    ]


def test_retry_with_backoff_keeps_its_times():
    result, records, steps = flaky_beside_sibling(retries=5, retry_backoff=0.5, failures=2)
    assert result.success and result.makespan == 5.5
    assert records == {
        "a": (3, 0.0, 4.5, "done"), "b": (1, 0.0, 1.0, "done"),
        "y": (1, 1.0, 2.0, "done"), "z": (1, 4.5, 5.5, "done"),
    }
    assert [t for t, j, e in steps if (j, e) == ("a", "start")] == [0.0, 1.5, 3.5]


def test_retries_exhausted_beside_a_sibling_reports_the_same_failure():
    result, records, steps = flaky_beside_sibling(retries=1, retry_backoff=0.0, failures=9)
    assert not result.success and result.makespan == 2.0
    assert result.failure == "job 'a' failed after 2 attempts: flaky"
    assert records == {
        "a": (2, 0.0, 2.0, "failed"), "b": (1, 0.0, 1.0, "done"),
        "y": (1, 1.0, 2.0, "done"), "z": (0, 0.0, 0.0, "pending"),
    }
    assert steps[-2:] == [(2.0, "a", "raise"), (2.0, "y", "end")]


def test_non_exception_from_a_runner_aborts_the_run():
    class Stop(BaseException):
        pass

    env = Environment()
    plan = make_plan([("a", "b")])

    def runner(workflow_id, job):
        yield env.timeout(1.0)
        raise Stop("not a job error")

    with pytest.raises(Stop, match="not a job error"):
        run_dagman(env, DAGMan(env, plan, {JobKind.COMPUTE: runner}, retries=5))
    assert env.now == 1.0  # not retried


def test_empty_plan_succeeds_at_once():
    env = Environment(initial_time=7.0)
    result = run_dagman(env, DAGMan(env, ExecutableWorkflow("w", "w#1"), {}))
    assert result.success and result.makespan == 0 and result.records == {}
    assert env.now == 7.0


@pytest.mark.parametrize(
    "lanes, chunks, jobs, events",
    # 276e308 took one more event per job (the run-* process's Initialize):
    # 415 and 16,999.
    [(2, 3, 54, 361), (10, 33, 2362, 14637)],
)
def test_event_budget_of_a_policy_off_run(monkeypatch, lanes, chunks, jobs, events):
    from repro.experiments.runner import ExperimentConfig, run_workflow
    from repro.workflow.synthetic import epigenomics_workflow

    steps = []
    real_step = Environment.step
    monkeypatch.setattr(Environment, "step", lambda env: steps.append(env) or real_step(env))
    delays = []
    real_timeout = Environment.timeout
    monkeypatch.setattr(
        Environment, "timeout",
        lambda env, delay, value=None: delays.append(delay) or real_timeout(env, delay, value),
    )
    metrics = run_workflow(
        ExperimentConfig(policy=None, default_streams=8, seed=1),
        epigenomics_workflow(lanes, chunks),
    )
    assert metrics.success
    assert sum(len(d) for d in metrics.job_durations.values()) == jobs
    assert len(steps) == events
    # Only a timeout that moves the clock goes through the heap; every
    # event due at the current instant takes a FIFO lane.
    (env,) = set(steps)
    assert env._seq == sum(1 for delay in delays if delay > 0)
