"""Traced runs: artifact set, determinism, profile coverage.

The determinism contract under test is the strong one: trace events
derive only from simulated time and run state, so two runs with the same
seed — even with the reference session matching the rules — produce
byte-identical JSONL.
"""

import json
from dataclasses import replace

import pytest

from repro.des.faults import FaultPlan, GridFTPStorm, ServiceOutage
from repro.experiments import ExperimentConfig, run_traced_cell
from repro.experiments.environment import TestbedParams
from repro.experiments.tracing import run_traced_chaos
from repro.net import GridFTPClient, TransferError

from tests.reference import reference_engine

SMALL = ExperimentConfig(extra_file_mb=2.0, n_images=4, seed=3)


@pytest.fixture(scope="module")
def traced_run():
    return run_traced_cell(SMALL)


def test_traced_run_succeeds_and_collects_events(traced_run):
    assert traced_run.metrics.success
    summary = traced_run.hooks.tracer.summary()
    assert summary["events"] > 0
    assert summary["spans"] > 0
    for cat in ("dagman", "ptt", "policy", "rpc", "net"):
        assert summary["categories"].get(cat, 0) > 0, cat


def test_jsonl_identical_across_engines(traced_run):
    with reference_engine():
        reference = run_traced_cell(SMALL)
    assert traced_run.jsonl() == reference.jsonl()
    assert len(reference.jsonl()) > 50


def test_jsonl_identical_on_same_seed_rerun(traced_run):
    again = run_traced_cell(SMALL)
    assert traced_run.jsonl() == again.jsonl()


def test_jsonl_differs_across_seeds(traced_run):
    other = run_traced_cell(replace(SMALL, seed=4))
    assert traced_run.jsonl() != other.jsonl()


def test_profile_covers_every_rule_in_the_active_set(traced_run):
    from repro.policy import PolicyConfig, PolicyService

    reference = PolicyService(PolicyConfig(
        policy=SMALL.policy, default_streams=SMALL.default_streams,
        max_streams=SMALL.threshold,
    ))
    expected = {rule.name for rule in reference._rules}
    profiled = {row.name for row in traced_run.hooks.profiler.rows()}
    assert profiled == expected
    report = traced_run.hooks.profiler.report()
    for name in expected:
        assert name[:42].rstrip() in report
    assert traced_run.hooks.profiler.total_firings > 0


def test_registry_collected_policy_metrics(traced_run):
    text = traced_run.hooks.metrics.render()
    assert 'repro_policy_calls_total{call="submit_transfers"}' in text
    assert "repro_policy_call_seconds_bucket" in text
    assert "repro_policy_journal_commits_total 0" in text


def test_provenance_carries_trace_summary(traced_run):
    doc = traced_run.provenance
    assert doc["trace"] == traced_run.hooks.tracer.summary()
    json.dumps(doc, default=repr)  # must stay JSON-able


def test_write_artifacts_produces_the_standard_set(tmp_path, traced_run):
    paths = traced_run.write_artifacts(tmp_path / "out")
    assert set(paths) == {
        "trace.json", "events.jsonl", "metrics.prom",
        "rule_profile.txt", "provenance.json", "decisions.jsonl",
    }
    chrome = json.loads((tmp_path / "out" / "trace.json").read_text())
    assert chrome["traceEvents"]
    assert all({"ph", "pid", "tid", "name"} <= set(e) for e in chrome["traceEvents"])
    jsonl = (tmp_path / "out" / "events.jsonl").read_text().splitlines()
    assert jsonl == traced_run.jsonl()
    assert "# TYPE" in (tmp_path / "out" / "metrics.prom").read_text()
    assert "rules," in (tmp_path / "out" / "rule_profile.txt").read_text()
    assert json.loads((tmp_path / "out" / "provenance.json").read_text())["success"]


def test_untraced_run_emits_nothing():
    from repro.experiments.runner import run_cell

    metrics = run_cell(SMALL)  # no tracer anywhere
    assert metrics.success


def test_traced_chaos_marks_fault_windows():
    from repro.des.faults import FaultPlan

    cfg = replace(SMALL, lease_seconds=120.0)
    run = run_traced_chaos(cfg, plan=FaultPlan.single_crash(at=20.0, duration=15.0))
    names = [e["name"] for e in run.hooks.tracer.by_category("fault")]
    assert "fault.outage.begin" in names
    assert "fault.outage.end" in names
    begin = next(e for e in run.hooks.tracer.by_category("fault")
                 if e["name"] == "fault.outage.begin")
    assert begin["ts"] == 20.0
    assert begin["args"]["duration"] == 15.0
    assert run.provenance["fault_log"]


def test_traced_run_carries_span_linked_decisions(traced_run):
    """Every policy decision of a traced run is retained, digest-verified,
    and cross-referenced to its submit span in the Chrome trace."""
    from repro.policy.provenance import decision_digest

    assert traced_run.decisions
    span_seqs = {e["seq"] for e in traced_run.hooks.tracer.events}
    linked = 0
    for record in traced_run.decisions:
        assert record["digest"] == decision_digest(record)
        seq = record["meta"].get("span_seq")
        if seq is not None:
            assert seq in span_seqs
            linked += 1
    assert linked > 0, "no decision was linked to a trace span"


def test_decisions_jsonl_artifact_round_trips(tmp_path, traced_run):
    paths = traced_run.write_artifacts(tmp_path / "out")
    lines = (tmp_path / "out" / "decisions.jsonl").read_text().splitlines()
    assert len(lines) == len(traced_run.decisions)
    parsed = [json.loads(line) for line in lines]
    assert parsed == traced_run.decisions


def test_provenance_doc_names_shards_and_frontend(traced_run):
    assert "engine" not in traced_run.provenance
    assert traced_run.provenance["shard_count"] == SMALL.shards
    assert traced_run.provenance["frontend"] == "in-process"


# ------------------------------------------------------- failed transfers
def count_failed_transfers(monkeypatch) -> list[str]:
    """Patch the GridFTP client to log the LFN of every failed transfer."""
    failed: list[str] = []
    transfer = GridFTPClient.transfer

    def counted(self, src_url, dst_url, *args, **kwargs):
        try:
            return (yield from transfer(self, src_url, dst_url, *args, **kwargs))
        except TransferError:
            failed.append(dst_url.rsplit("/", 1)[1])
            raise

    monkeypatch.setattr(GridFTPClient, "transfer", counted)
    return failed


def failed_xfer_spans(run) -> list[str]:
    return [
        s["name"].removeprefix("xfer:") for s in run.hooks.tracer.spans()
        if s["name"].startswith("xfer:") and s["args"]["outcome"] == "failed"
    ]


def test_every_failed_policy_free_transfer_closes_its_span(monkeypatch):
    """Default Pegasus used to leave a failed transfer's span open, so it
    never reached the trace."""
    failed = count_failed_transfers(monkeypatch)
    cfg = ExperimentConfig(
        policy=None, extra_file_mb=10.0, n_images=8, seed=4,
        testbed=TestbedParams(failure_rate=0.3),
    )
    run = run_traced_cell(cfg)
    assert run.metrics.success
    assert len(failed) == 7
    assert sorted(failed_xfer_spans(run)) == sorted(failed)


def test_every_failed_degraded_transfer_closes_its_span(monkeypatch):
    """Same for transfers run policy-free while the service is down."""
    failed = count_failed_transfers(monkeypatch)
    plan = FaultPlan(
        outages=(ServiceOutage(at=2.0, duration=20.0),),
        storms=(GridFTPStorm(0.0, 200.0, 0.3),),
    )
    run = run_traced_chaos(ExperimentConfig(extra_file_mb=20.0, n_images=12, seed=3), plan)
    assert run.metrics.success
    degraded = [
        s for s in run.hooks.tracer.spans()
        if s["name"].startswith("xfer:") and s["args"].get("mode") == "degraded"
    ]
    assert [s["args"]["outcome"] for s in degraded].count("failed") == 2
    assert sorted(failed_xfer_spans(run)) == sorted(failed)
