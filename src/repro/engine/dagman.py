"""DAGMan-like workflow executor.

Releases jobs as their dependencies complete, subject to per-category
throttles (the paper runs with a *local job limit of 20*, bounding how
many data staging jobs run at once), retries failed jobs (5 retries in
the paper's configuration), and records per-job timings.

Runners are pluggable per :class:`~repro.planner.executable.JobKind`;
each runner is a callable ``runner(workflow_id, job) -> generator`` driven
inside its job's DES process, which exists from the job's release to its
completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.des import Environment, PriorityResource
from repro.planner.executable import ExecutableJob, ExecutableWorkflow, JobKind

__all__ = ["DAGMan", "DAGManResult", "JobRecord", "WorkflowFailed"]

Runner = Callable[[str, ExecutableJob], object]


class WorkflowFailed(RuntimeError):
    """A job exhausted its retries; the workflow run is aborted."""

    def __init__(self, job_id: str, attempts: int, cause: BaseException):
        super().__init__(f"job {job_id!r} failed after {attempts} attempts: {cause}")
        self.job_id = job_id
        self.attempts = attempts
        self.cause = cause


@dataclass(slots=True)
class JobRecord:
    """Timing and outcome of one executable job."""

    job_id: str
    kind: str
    t_ready: float = 0.0
    t_start: float = 0.0
    t_end: float = 0.0
    attempts: int = 0
    state: str = "pending"  # -> running -> done | failed

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass
class DAGManResult:
    """Outcome of a workflow run."""

    workflow_id: str
    success: bool
    makespan: float
    records: dict[str, JobRecord] = field(default_factory=dict)
    failure: Optional[str] = None

    def by_kind(self, kind: JobKind) -> list[JobRecord]:
        value = kind.value
        return [r for r in self.records.values() if r.kind == value]


class DAGMan:
    """Executes one planned workflow on the simulation.

    Parameters
    ----------
    env, plan:
        Simulation environment and the planner's output.
    runners:
        ``{JobKind: runner}`` — must cover every kind present in the plan.
    throttles:
        ``{JobKind: limit}`` — per-category concurrent job limits (jobs of
        kinds not listed are unthrottled).  The paper's configuration is
        ``{JobKind.STAGE_IN: 20}``.
    retries:
        Retries per job after the first failure (paper: 5).
    retry_backoff:
        Base delay (seconds) before retry ``n`` — waits
        ``retry_backoff * 2**(n-1)``, capped at ``retry_backoff_max``.
        0 (the default) retries immediately, the seed behaviour.
    retry_jitter:
        Fraction of random inflation added to each backoff delay (needs
        ``rng``) so failed jobs don't retry in lock-step against a
        struggling resource.
    rng:
        Any object with a ``random() -> [0, 1)`` method (e.g. a
        ``random.Random`` or a seeded simulation stream).
    """

    def __init__(
        self,
        env: Environment,
        plan: ExecutableWorkflow,
        runners: dict[JobKind, Runner],
        throttles: Optional[dict[JobKind, int]] = None,
        retries: int = 5,
        retry_backoff: float = 0.0,
        retry_backoff_max: float = 300.0,
        retry_jitter: float = 0.1,
        rng=None,
    ):
        plan.validate()
        missing = {j.kind for j in plan.jobs.values()} - set(runners)
        if missing:
            raise ValueError(f"no runner for job kinds: {sorted(k.value for k in missing)}")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if not (retry_backoff >= 0 and retry_backoff_max >= 0):  # NaN too
            raise ValueError(
                f"retry backoff delays must be >= 0, got {retry_backoff} / {retry_backoff_max}"
            )
        if not 0 <= retry_jitter <= 1:
            raise ValueError("retry_jitter must be in [0, 1]")
        self.env = env
        self.plan = plan
        self.runners = runners
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.retry_backoff_max = retry_backoff_max
        self.retry_jitter = retry_jitter
        self._rng = rng
        self._throttles: dict[JobKind, PriorityResource] = {}
        for kind, limit in (throttles or {}).items():
            if limit < 1:
                raise ValueError(f"throttle for {kind.value} must be >= 1")
            self._throttles[kind] = PriorityResource(env, capacity=limit)
        self.records: dict[str, JobRecord] = {
            jid: JobRecord(job_id=jid, kind=job.kind.value)
            for jid, job in plan.jobs.items()
        }
        self._failure: Optional[WorkflowFailed] = None

    def _retry_delay(self, attempt: int) -> float:
        """Backoff before retrying a job that has failed ``attempt`` times."""
        if self.retry_backoff <= 0:
            return 0.0
        delay = min(self.retry_backoff * 2 ** (attempt - 1), self.retry_backoff_max)
        if self.retry_jitter and self._rng is not None:
            delay *= 1.0 + self.retry_jitter * self._rng.random()
        return delay

    # ------------------------------------------------------------------ run
    def run(self):
        """Process generator: execute the whole plan; returns DAGManResult.

        Drive it with ``env.process(dagman.run())`` and ``env.run(until=p)``.
        """
        env = self.env
        t0 = env.now
        children, parents = self.plan.adjacency()
        remaining_parents = {jid: len(ps) for jid, ps in parents.items()}
        abort = env.event()
        all_done = env.event()
        unfinished = len(remaining_parents)

        tracer = env.tracer
        wf_track = f"dagman:{self.plan.workflow_id}"

        def job_finished(process) -> None:
            # What AllOf does per child: count successes, fail fast.
            nonlocal unfinished
            if process.ok is False:
                process.defuse()
                if not all_done.triggered:
                    all_done.fail(process.value)
                return
            unfinished -= 1
            if unfinished == 0:
                all_done.succeed()

        def start(ready) -> None:
            jid = ready.value
            env.process(job_process(jid), name=f"job-{jid}").callbacks.append(job_finished)

        def release(jid: str) -> None:
            # Readiness is a NORMAL event of its own, not a direct start: a
            # new process begins URGENT, which would put the job ahead of
            # whatever else is already due at this instant.
            ready = env.event()
            ready.callbacks.append(start)
            ready.succeed(jid)

        def job_process(jid: str):
            job = self.plan.jobs[jid]
            record = self.records[jid]
            record.t_ready = env.now
            throttle = self._throttles.get(job.kind)
            request = None
            if throttle is not None:
                request = throttle.request(priority=-job.priority)
                yield request
            record.t_start = env.now
            record.state = "running"
            span = None
            if tracer.enabled:
                if record.t_start > record.t_ready:
                    tracer.instant(
                        "dagman", "dagman.throttled", track=wf_track,
                        job=jid, kind=job.kind.value,
                        queued=record.t_start - record.t_ready,
                    )
                span = tracer.begin(
                    "dagman", f"job:{jid}", track=wf_track,
                    kind=job.kind.value, priority=job.priority,
                )
            try:
                runner = self.runners[job.kind]
                while True:
                    record.attempts += 1
                    error = None
                    try:
                        yield from runner(self.plan.workflow_id, job)
                    except Exception as exc:  # noqa: BLE001 - retry any job error
                        error = exc
                    # The runner's end, good or bad, is one NORMAL step too
                    # (same-instant trace order depends on it).
                    yield env.event().succeed()
                    if error is None:
                        break
                    if record.attempts > self.retries:
                        record.state = "failed"
                        record.t_end = env.now
                        if span is not None:
                            tracer.end(
                                span, state="failed",
                                attempts=record.attempts,
                                error=type(error).__name__,
                            )
                        failure = WorkflowFailed(jid, record.attempts, error)
                        self._failure = failure
                        if not abort.triggered:
                            abort.succeed(failure)
                        return
                    delay = self._retry_delay(record.attempts)
                    if delay > 0:
                        yield env.timeout(delay)
            finally:
                if throttle is not None and request is not None:
                    throttle.release(request)
            record.state = "done"
            record.t_end = env.now
            if span is not None:
                tracer.end(span, state="done", attempts=record.attempts)
            for child in children[jid]:
                remaining_parents[child] -= 1
                if remaining_parents[child] == 0:
                    release(child)

        for jid, count in remaining_parents.items():
            if count == 0:
                release(jid)
        if not remaining_parents:
            all_done.succeed()
        yield env.any_of([all_done, abort])
        if self._failure is not None:
            # Give no further jobs a chance; report failure.
            return DAGManResult(
                workflow_id=self.plan.workflow_id,
                success=False,
                makespan=env.now - t0,
                records=self.records,
                failure=str(self._failure),
            )
        # Every job has finished, so nothing calls these again; dropping
        # them breaks their cycle (job_process -> release -> start ->
        # job_process) and reference counting frees the run.
        del job_process, release, start
        return DAGManResult(
            workflow_id=self.plan.workflow_id,
            success=True,
            makespan=env.now - t0,
            records=self.records,
        )
