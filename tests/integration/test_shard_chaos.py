"""Shard-level chaos acceptance: a 2-shard Montage run with a mid-run
shard crash + journal replay must stage the byte-identical file set of a
clean single-service run, leak no in-progress grants, and keep the
surviving shard serving exact policy advice throughout.

The fleet-only evidence lives here (shard health, ``router_degraded``,
router-minted synthetic records); the scenarios shared with one service
are ``tests/integration/test_chaos.py``'s 2-shard legs.
"""

import pytest

from repro.des.faults import FaultPlan, ShardCrash, ShardSlowdown
from repro.experiments.chaos import compare_with_faultless, run_chaos_montage
from repro.experiments.runner import ExperimentConfig


def _cfg(**kw):
    base = dict(n_images=12, lease_seconds=600.0, seed=3, shards=2)
    base.update(kw)
    return ExperimentConfig(**base)


# The crash window is tuned so the replay happens mid-run: the Montage
# makespan at this scale is ~190s sim time, so a crash at t=60 with a
# 45s outage replays at t=105 while transfers are still flowing.
_PLAN = FaultPlan.single_shard_crash(at=60.0, shard=0, down_for=45.0)


def test_mid_run_shard_crash_stages_identical_set(tmp_path):
    out = compare_with_faultless(_cfg(journal_root=tmp_path), _PLAN)
    chaotic = out["chaotic"]
    assert out["both_succeeded"]
    assert out["staged_sets_equal"], (
        f"staged sets diverge: clean={len(out['clean'].staged_files)} "
        f"chaotic={len(chaotic.staged_files)}"
    )
    assert out["leaked_in_progress"] == 0
    assert not chaotic.recovery_errors

    # The crash actually happened and actually replayed mid-run.
    events = [entry for (_t, entry) in chaotic.fault_log]
    assert any("shard 0 crashed" in e for e in events), events
    assert any("replayed from journal" in e for e in events), events
    replay_time = next(
        t for (t, e) in chaotic.fault_log if "replayed" in e)
    assert replay_time < chaotic.metrics.makespan

    # The victim came back; the survivor never went down.
    health = {h["shard"]: h for h in chaotic.shard_health}
    assert health[0]["healthy"] and health[0]["recoveries"] == 1
    assert health[1]["healthy"] and health[1]["crashes"] == 0

    # Something was actually served degraded during the outage —
    # otherwise this test proves nothing about degraded mode.
    assert chaotic.router_degraded > 0
    # And the shard journals were doing real work.
    assert chaotic.journal_commits > 0


def test_shard_slowdown_trips_breaker_and_recovers(tmp_path):
    plan = FaultPlan(
        shard_slowdowns=(
            ShardSlowdown(at=60.0, duration=30.0, shard=0, timeout_rate=1.0),
        ),
        shard_crashes=(),
    )
    result = run_chaos_montage(
        _cfg(journal_root=tmp_path), plan=plan, breaker_threshold=2
    )
    assert result.metrics.success
    assert result.leaked_in_progress == 0
    # The storm tripped the breaker at least once.
    health = {h["shard"]: h for h in result.shard_health}
    assert health[0]["breaker"]["transitions"].get("closed->open", 0) >= 1


def test_clean_sharded_run_matches_without_faults(tmp_path):
    out = compare_with_faultless(_cfg(journal_root=tmp_path), FaultPlan())
    assert out["staged_sets_equal"] and out["both_succeeded"]
    assert out["chaotic"].router_degraded == 0


def test_shard_crash_validation():
    with pytest.raises(ValueError):
        ShardCrash(at=-1.0, shard=0, down_for=10.0)
    with pytest.raises(ValueError):
        ShardCrash(at=1.0, shard=-1, down_for=10.0)
    with pytest.raises(ValueError):
        ShardSlowdown(at=1.0, duration=5.0, shard=0, timeout_rate=2.0)


def test_shard_outage_leaves_synthetic_decision_records(tmp_path):
    """Advice served while a shard was down is witnessed by router-minted
    policy-free records; everything else keeps its causal chain."""
    result = run_chaos_montage(_cfg(journal_root=tmp_path), plan=_PLAN)
    assert result.metrics.success
    assert result.decisions
    synthetic = [r for r in result.decisions if r.get("policy_free")]
    policied = [r for r in result.decisions if not r.get("policy_free")]
    assert result.router_degraded == 0 or synthetic, (
        "degraded advice was served but never witnessed"
    )
    assert policied and all(r["firings"] for r in policied)
