"""End-to-end integration: plan -> policy -> transfer -> compute -> cleanup.

Uses a reduced Montage (16 images) on the full simulated paper testbed so
each test runs in well under a second of wall time.
"""

import pytest

from repro.experiments import ExperimentConfig, run_cell
from repro.experiments.runner import run_workflow
from tests.workflow.generators import diamond_workflow, fork_join_workflow


def small(**overrides):
    defaults = dict(extra_file_mb=10, n_images=16, seed=3)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_greedy_run_completes_and_moves_all_bytes():
    cfg = small(policy="greedy", threshold=50, default_streams=4)
    metrics = run_cell(cfg)
    assert metrics.success
    # 16 images x (2 MB image + 10 MB extra) + 1 KB header, with <= 2%
    # protocol overhead jitter on top.
    expected = 16 * (2e6 + 10e6) + 1e3
    assert metrics.bytes_staged == pytest.approx(expected, rel=0.001)
    assert metrics.transfers_executed == 33
    assert metrics.transfers_skipped == 0


def test_no_policy_run_completes():
    metrics = run_cell(small(policy=None))
    assert metrics.success
    assert metrics.policy_calls == 0
    assert metrics.policy_stats == {}


def test_policy_enforces_wan_stream_threshold():
    cfg = small(policy="greedy", threshold=20, default_streams=8)
    metrics = run_cell(cfg)
    assert metrics.success
    # The simulated WAN never carries more streams than greedy allocates:
    # 2 full grants of 8 + 1 partial of 4 + 13 singles = 33... but only
    # 16 staging jobs run, so: 2x8 + 4 + 13x1 = 33 total analytic; the
    # observed peak must respect the analytic bound for 16 jobs.
    from repro.policy.allocation import greedy_allocation_trace

    bound = sum(greedy_allocation_trace(16, 8, 20))
    assert metrics.peak_streams["wan"] <= bound


def test_no_policy_peak_matches_job_limit_times_default():
    cfg = small(policy=None, default_streams=4, n_images=30, job_limit=10)
    metrics = run_cell(cfg)
    assert metrics.peak_streams["wan"] <= 10 * 4


def test_policy_overhead_accounted():
    metrics = run_cell(small(policy="greedy"))
    assert metrics.policy_calls > 0
    assert metrics.policy_overhead == pytest.approx(
        metrics.policy_calls * 0.15, rel=1e-6
    )


def test_balanced_policy_runs():
    cfg = small(policy="balanced", cluster_factor=4, threshold=40)
    metrics = run_cell(cfg)
    assert metrics.success


def test_priority_algorithm_runs():
    cfg = small(policy="greedy", priority_algorithm="dependent", order_by="priority")
    metrics = run_cell(cfg)
    assert metrics.success


def test_clustered_staging_runs():
    cfg = small(cluster_factor=4)
    metrics = run_cell(cfg)
    assert metrics.success
    # 16 stage-in jobs collapse into 4 clustered jobs; all bytes still move.
    expected = 16 * (2e6 + 10e6) + 1e3
    assert metrics.bytes_staged == pytest.approx(expected, rel=0.001)


def test_cleanup_disabled_still_completes():
    metrics = run_cell(small(cleanup=False))
    assert metrics.success


def test_deterministic_given_seed():
    a = run_cell(small(seed=42))
    b = run_cell(small(seed=42))
    assert a.makespan == b.makespan
    assert a.bytes_staged == b.bytes_staged


def test_different_seeds_jitter():
    a = run_cell(small(seed=1))
    b = run_cell(small(seed=2))
    assert a.makespan != b.makespan


def test_failure_injection_with_retries_succeeds():
    from repro.experiments.environment import TestbedParams

    cfg = small(testbed=TestbedParams(failure_rate=0.08), seed=7)
    metrics = run_cell(cfg)
    assert metrics.success  # retries absorb the injected failures


def test_generic_workflows_run_on_testbed():
    from repro.experiments.environment import build_testbed

    for wf in (diamond_workflow(), fork_join_workflow(width=5)):
        cfg = ExperimentConfig(extra_file_mb=0, seed=5)
        bed = build_testbed(cfg.testbed, seed=5)
        metrics = run_workflow(cfg, wf, bed=bed)
        assert metrics.success


def test_staging_time_within_makespan():
    metrics = run_cell(small())
    assert 0 < metrics.staging_time <= metrics.makespan
    assert metrics.compute_time > 0


def test_stage_out_to_archive_site():
    """Final outputs are shipped to a separate archive site (stage-out)."""
    metrics = run_cell(small(output_site="archive"))
    assert metrics.success
    # The mosaic JPEG crossed the archive LAN and was registered there.
    from repro.experiments.environment import build_testbed  # noqa: F401

    assert metrics.job_durations["stage-out"], "a stage-out job must have run"
    assert len(metrics.job_durations["stage-out"]) == 1


def test_fifo_policy_runs_end_to_end():
    metrics = run_cell(small(policy="fifo"))
    assert metrics.success
    # fifo applies Table I (dedup/groups) but never caps streams.
    assert metrics.policy_stats["transfers_approved"] > 0
