"""The disabled-instrumentation contract, held by a count.

With no tracer — or a disabled one — and no profiler attached, a policy
workload and a simulated cell make **zero** Python calls into
``repro/obs/tracer.py`` and ``repro/obs/profiler.py`` and record zero
events: every instrumentation point then costs one attribute test
(``if tracer.enabled:`` / ``if span is not None:``), which is all that
"near-zero overhead" can mean.  The count repeats exactly per seed, so
unlike a wall-clock ratio with a 2 % threshold it fails only for a reason
(``docs/observability.md`` records the measurement that retired the clock).
"""

import os
import sys

import pytest

from repro.experiments.environment import build_testbed
from repro.experiments.runner import (
    ExperimentConfig,
    WorkflowExecution,
    build_policy_client,
    cell_workflow,
)
from repro.obs import Tracer
from repro.obs import metrics as metrics_module
from repro.obs import profiler as profiler_module
from repro.obs import tracer as tracer_module
from repro.obs.tracer import as_tracer
from repro.policy import PolicyConfig, PolicyService, ShardedPolicyService

WATCHED = {tracer_module.__file__, profiler_module.__file__}

tracers = pytest.mark.parametrize(
    "make_tracer", [lambda: None, lambda: Tracer(enabled=False)],
    ids=["no-tracer", "disabled-tracer"],
)


def calls_into_obs(workload, watched=WATCHED) -> dict:
    """``{"tracer.py:end": n, ...}`` for the Python calls ``workload()``
    makes into the ``watched`` ``repro/obs`` modules."""
    counts: dict = {}

    def hook(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename in watched:
            key = f"{os.path.basename(code.co_filename)}:{code.co_name}"
            counts[key] = counts.get(key, 0) + 1

    sys.setprofile(hook)
    try:
        workload()
    finally:
        sys.setprofile(None)
    return counts


def specs(job: int, n: int = 5) -> list:
    return [
        {
            "lfn": f"f{job}-{i}",
            "src_url": f"gsiftp://fg-vm/data/f{job}-{i}",
            "dst_url": f"gsiftp://obelix/scratch/f{job}-{i}",
            "nbytes": 1000.0,
        }
        for i in range(n)
    ]


def test_the_hook_sees_an_enabled_tracer():
    """The counter is live: the same workload with tracing on is counted."""
    service = PolicyService(PolicyConfig(policy="greedy"), tracer=Tracer())
    counts = calls_into_obs(lambda: service.submit_transfers("wf", "j", specs(0)))
    assert counts["tracer.py:begin"] == counts["tracer.py:end"] == 1


POLICY = PolicyConfig(policy="greedy", default_streams=4, max_streams=50)


def policy_workload(service) -> None:
    for job in range(4):
        advice = service.submit_transfers("wf", f"stage-{job}", specs(job))
        # A second workflow asks for the same files: skip / wait advice.
        service.submit_transfers("wf2", f"stage-{job}", specs(job))
        service.complete_transfers(
            done=[a.tid for a in advice[1:]], failed=[advice[0].tid]
        )
        cleanups = service.submit_cleanups(
            "wf", f"clean-{job}", [(a.lfn, a.dst_url) for a in advice]
        )
        service.complete_cleanups(
            [c.cid for c in cleanups if c.action == "delete"]
        )
    service.reconcile_staged("wf", [("late", "gsiftp://obelix/scratch/late")])


@tracers
def test_policy_calls_make_no_call_into_obs(make_tracer):
    tracer = make_tracer()
    service = PolicyService(POLICY, tracer=tracer)

    assert calls_into_obs(lambda: policy_workload(service)) == {}
    assert as_tracer(tracer).events == []


@tracers
def test_fleet_calls_make_no_call_into_obs(make_tracer):
    """The same workload through a 2-shard router: its envelope, scatter
    and merge are as silent as the service's."""
    tracer = make_tracer()
    router = ShardedPolicyService(POLICY, num_shards=2, tracer=tracer)

    assert calls_into_obs(lambda: policy_workload(router)) == {}
    assert as_tracer(tracer).events == []


def test_a_warmed_fleet_resolves_no_metric_label():
    """The router keeps each counter child it has made, as the service
    does: once a workload has seen its label values, repeating it makes
    no ``labels()`` lookup (keyword increments made 2,013 of them on the
    89-image cell on 4 shards)."""
    router = ShardedPolicyService(POLICY, num_shards=2)
    policy_workload(router)

    counts = calls_into_obs(lambda: policy_workload(router), {metrics_module.__file__})
    assert "metrics.py:labels" not in counts, counts


@tracers
def test_a_simulated_cell_makes_no_call_into_obs(make_tracer):
    tracer = make_tracer()
    cfg = ExperimentConfig(
        extra_file_mb=5, default_streams=4, threshold=50, n_images=4, seed=11
    )
    bed = build_testbed(cfg.testbed, seed=cfg.seed, tracer=tracer)
    execution = WorkflowExecution(
        cfg, cell_workflow(cfg), bed, build_policy_client(cfg, bed)
    )

    assert calls_into_obs(lambda: bed.env.run(until=execution.start())) == {}
    assert execution.metrics().policy_calls > 0
    assert as_tracer(tracer).events == []
