"""Tests of provenance export and the ASCII timeline."""

import json

from repro.experiments import ExperimentConfig, ascii_timeline, run_provenance
from repro.experiments.environment import build_testbed
from repro.experiments.runner import WorkflowExecution, build_policy_client
from repro.workflow.montage import MB, MontageConfig, augmented_montage


def executed_run():
    cfg = ExperimentConfig(extra_file_mb=10, n_images=8, seed=21)
    bed = build_testbed(cfg.testbed, seed=21)
    wf = augmented_montage(10 * MB, MontageConfig(n_images=8, name="m8"))
    execution = WorkflowExecution(cfg, wf, bed, build_policy_client(cfg, bed))
    process = execution.start()
    bed.env.run(until=process)
    return cfg, execution


def test_provenance_is_json_serializable_and_complete():
    cfg, execution = executed_run()
    doc = run_provenance(execution.metrics(), execution.result, cfg)
    text = json.dumps(doc)  # must not raise
    assert doc["success"] is True
    assert doc["staging"]["transfers_executed"] > 0
    assert doc["policy"]["calls"] > 0
    assert doc["config"]["policy"] == "'greedy'"
    assert "testbed" not in doc["config"]
    assert doc["job_durations"]["compute"]["count"] > 0
    # per-job records present and ordered by start time
    starts = [j["t_start"] for j in doc["jobs"]]
    assert starts == sorted(starts)
    assert all(j["state"] == "done" for j in doc["jobs"])
    assert "mProjectPP_0" in text


def test_provenance_without_result_or_config():
    _, execution = executed_run()
    doc = run_provenance(execution.metrics())
    assert "jobs" not in doc
    assert "config" not in doc


def test_ascii_timeline_renders_kinds():
    _, execution = executed_run()
    text = ascii_timeline(execution.result)
    assert "timeline of" in text
    assert "stage-in" in text
    assert "compute" in text
    assert "cleanup" in text
    assert "#" in text


def test_ascii_timeline_empty_result():
    from repro.engine.dagman import DAGManResult

    empty = DAGManResult(workflow_id="w", success=False, makespan=0.0)
    assert "no completed jobs" in ascii_timeline(empty)


def test_ascii_timeline_golden():
    """Pinned output: bar placement, kind ordering, failed jobs excluded."""
    from repro.engine.dagman import DAGManResult, JobRecord

    records = {
        "stage_in_a": JobRecord("stage_in_a", "stage-in", 0.0, 0.0, 10.0, 1, "done"),
        "stage_in_b": JobRecord("stage_in_b", "stage-in", 0.0, 4.0, 12.0, 1, "done"),
        "compute_a": JobRecord("compute_a", "compute", 10.0, 10.0, 20.0, 1, "done"),
        "cleanup_a": JobRecord("cleanup_a", "cleanup", 20.0, 20.0, 24.0, 1, "done"),
        # failed jobs must not contribute bars
        "failed_x": JobRecord("failed_x", "compute", 0.0, 1.0, 2.0, 3, "failed"),
    }
    result = DAGManResult(
        workflow_id="m4#1", success=True, makespan=24.0, records=records
    )
    assert ascii_timeline(result, width=36) == (
        "timeline of m4#1 (0 .. 24 s)\n"
        "   compute |              ################      |\n"
        "  stage-in |##################                  |\n"
        "   cleanup |                             #######|"
    )


def test_provenance_trace_summary_attached():
    from repro.obs import Tracer

    tracer = Tracer()
    tracer.instant("fault", "fault.outage.begin")
    _, execution = executed_run()
    doc = run_provenance(execution.metrics(), tracer=tracer)
    assert doc["trace"]["events"] == 1
    assert doc["trace"]["categories"] == {"fault": 1}
