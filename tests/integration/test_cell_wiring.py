"""One place builds a cell's policy service, one function runs it.

``ExperimentConfig`` is the only statement of what a cell runs against
(``shards``, ``journal_root``): these tests pin that no runner accepts a
setting and ignores it, and that a finished run keeps its service.
"""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.environment import build_testbed
from repro.experiments.runner import (
    ExperimentConfig,
    build_policy_service,
    cell_workflow,
    execute_workflow,
    policy_config_of,
    run_cell,
    run_workflow,
)
from repro.experiments.tracing import run_traced_cell, run_traced_chaos
from repro.policy import PolicyConfig, PolicyService, ShardedPolicyService
from repro.policy.model import CleanupFact, HostPairFact, TransferFact

SMALL = ExperimentConfig(extra_file_mb=5.0, n_images=6, seed=2)


def test_single_service_journals_under_config_journal_root(tmp_path):
    """``journal_root`` with ``shards=0`` used to run unjournaled and never
    create the directory."""
    root = tmp_path / "journal"
    cfg = replace(SMALL, journal_root=root)
    assert run_cell(cfg).success
    assert (root / "journal.jsonl").exists()

    bed = build_testbed(cfg.testbed, seed=cfg.seed)
    recovered = PolicyService.recover(root, config=policy_config_of(cfg, bed))
    memory = recovered.memory
    assert not [
        f
        for fact_type in (TransferFact, CleanupFact)
        for f in memory.facts_of(fact_type)
        if f.status == "in_progress"
    ]
    assert all(pair.allocated == 0 for pair in memory.facts_of(HostPairFact))


def test_build_policy_service_follows_the_config(tmp_path):
    bed = build_testbed(SMALL.testbed, seed=SMALL.seed)
    single = build_policy_service(SMALL, bed)
    assert isinstance(single, PolicyService) and single.journal is None
    assert single.clock() == bed.env.now

    fleet = build_policy_service(replace(SMALL, shards=3, journal_root=tmp_path), bed)
    assert isinstance(fleet, ShardedPolicyService) and fleet.num_shards == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shard-0", "shard-1", "shard-2"]
    fleet.close()


def test_execute_workflow_returns_the_finished_run():
    execution = execute_workflow(SMALL, cell_workflow(SMALL))
    assert execution.result is not None and execution.result.success
    assert execution.ptt.staged_log
    record = execution.policy.service.explain(1)
    assert record is not None and record["tid"] == 1

    # Workflow ids carry a process-global plan sequence; everything else
    # in the metrics is a function of (cfg, workflow).
    metrics = replace(execution.metrics(), workflow_id="")
    again = replace(run_workflow(SMALL, cell_workflow(SMALL)), workflow_id="")
    assert metrics == again


def test_traced_fleet_chaos_has_a_rule_profile(tmp_path):
    """The old shard chaos runner took no profiler, so a traced sharded
    chaos run could never have a rule profile."""
    run = run_traced_chaos(replace(SMALL, shards=2, lease_seconds=120.0))
    assert run.metrics.success
    assert run.hooks.profiler.total_firings > 0
    run.write_artifacts(tmp_path)
    profile = (tmp_path / "rule_profile.txt").read_text()
    assert f"{run.hooks.profiler.total_firings} firings" in profile


def test_traced_cell_without_policy_writes_empty_decisions(tmp_path):
    run = run_traced_cell(replace(SMALL, policy=None))
    assert run.metrics.success and run.decisions == []
    run.write_artifacts(tmp_path)
    assert (tmp_path / "decisions.jsonl").read_text() == ""


def test_removed_service_knobs_are_type_errors(tmp_path):
    # Shards are in-process services: there is no backend list to pass.
    for knob in ({"breaker_reset": 60.0}, {"backends": []}):
        with pytest.raises(TypeError):
            ShardedPolicyService(num_shards=2, **knob)
    # ``extra_rules`` had no caller: rule packs come from the config alone.
    for build in (PolicyService, ShardedPolicyService,
                  lambda **kw: PolicyService.recover(tmp_path, **kw)):
        with pytest.raises(TypeError):
            build(extra_rules=())
    # Provenance is always on, and the lease sweep throttle is always
    # ``lease_seconds / 4``: neither is a config switch any more.
    for knob in ({"decision_log": False}, {"lease_sweep_interval": 1.0}):
        with pytest.raises(TypeError):
            PolicyConfig(lease_seconds=60.0, **knob)


def test_there_is_one_shard_backend():
    # Neither backend class of the old two-backend layer is importable.
    for kind in ("Process", "InProcess"):
        with pytest.raises(ImportError):
            exec(f"from repro.policy.sharding import {kind}ShardBackend", {})
    src = Path(__file__).resolve().parents[2] / "src"
    script = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import repro; "
        "assert 'multiprocessing' not in sys.modules"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
