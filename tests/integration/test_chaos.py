"""Chaos Montage: the workflow survives a mid-run Policy Service crash.

The acceptance bar from the robustness work: with journaling, leases, and
a degrading client, a Montage run that loses its Policy Service mid-flight
finishes with the **byte-identical staged file set** of a clean run, and
policy memory holds no leaked in-progress facts afterwards.

One runner serves every fleet size, so each scenario is a function of
``shards``: the historical tests run it against one service, and
``test_scenario_holds_on_a_two_shard_fleet`` runs the same assertions
against a 2-shard router (``cfg.shards`` / ``cfg.journal_root`` are the
only difference).
"""

import pytest

from repro.des.faults import (
    FaultPlan, GridFTPStorm, RouterPartition, RpcDropWindow, ShardCrash, ShardSlowdown,
)
from repro.experiments.chaos import compare_with_faultless, run_chaos_montage
from repro.experiments.runner import ExperimentConfig


def chaos_config(**overrides):
    defaults = dict(
        policy="greedy",
        n_images=10,
        threshold=20,
        lease_seconds=600.0,
        retries=5,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ------------------------------------------------------------- scenarios
def clean_run_baseline(shards, tmp_path):
    result = run_chaos_montage(chaos_config(shards=shards))
    assert result.metrics.success
    assert result.staged_files  # something was staged
    assert result.degraded_transfers == 0
    assert result.leaked_in_progress == 0
    assert result.fault_log == []


def crash_and_journal_restart(shards, tmp_path):
    plan = FaultPlan.single_crash(at=60.0, duration=120.0)
    outcome = compare_with_faultless(
        chaos_config(shards=shards, journal_root=tmp_path / "journal"), plan
    )
    assert outcome["both_succeeded"]
    assert outcome["staged_sets_equal"]
    chaotic = outcome["chaotic"]
    assert chaotic.leaked_in_progress == 0
    assert chaotic.recovery_errors == []
    assert chaotic.journal_commits > 0
    assert any("crashed" in msg for _, msg in chaotic.fault_log)
    # A fleet cannot be restarted as a whole yet (its router state is not
    # durable), so its outage ends as a hang over journaled shards.
    back = "recovered" if shards == 0 else "back up"
    assert any(back in msg for _, msg in chaotic.fault_log)


def early_crash_degrades_then_reconciles(shards, tmp_path):
    # Crash almost immediately, before most staging begins: the tool must
    # stage policy-free and adopt the files once the service is back.
    plan = FaultPlan.single_crash(at=5.0, duration=120.0)
    outcome = compare_with_faultless(
        chaos_config(shards=shards, journal_root=tmp_path / "journal"), plan
    )
    assert outcome["both_succeeded"]
    assert outcome["staged_sets_equal"]
    assert outcome["chaotic"].leaked_in_progress == 0
    assert outcome["chaotic"].recovery_errors == []


def outage_without_journal(shards, tmp_path):
    # No journal: the outage models a hang; the same process resumes with
    # memory intact. The run must still complete and stay leak-free.
    plan = FaultPlan.single_crash(at=60.0, duration=90.0)
    outcome = compare_with_faultless(chaos_config(shards=shards), plan)
    result = outcome["chaotic"]
    assert result.metrics.success
    assert outcome["staged_sets_equal"]
    assert result.leaked_in_progress == 0
    assert result.journal_commits == 0


def rpc_drops_and_storm(shards, tmp_path):
    plan = FaultPlan(
        rpc_drops=(RpcDropWindow(at=30.0, duration=30.0, rate=0.5),),
        storms=(GridFTPStorm(at=20.0, duration=60.0, failure_rate=0.3),),
    )
    outcome = compare_with_faultless(
        chaos_config(shards=shards, retry_backoff=2.0), plan
    )
    assert outcome["chaotic"].metrics.success
    assert outcome["staged_sets_equal"]
    assert outcome["chaotic"].leaked_in_progress == 0


# ---------------------------------------------------- against one service
def test_clean_run_baseline(tmp_path):
    clean_run_baseline(0, tmp_path)


def test_crash_and_journal_restart_preserves_staged_set(tmp_path):
    crash_and_journal_restart(0, tmp_path)


def test_early_crash_forces_degraded_mode_then_reconciles(tmp_path):
    early_crash_degrades_then_reconciles(0, tmp_path)


def test_outage_without_journal_still_completes(tmp_path):
    outage_without_journal(0, tmp_path)


def test_rpc_drops_and_storm_with_backoff(tmp_path):
    rpc_drops_and_storm(0, tmp_path)


# --------------------------------------------------- against a 2-shard fleet
@pytest.mark.parametrize(
    "scenario",
    [
        clean_run_baseline,
        crash_and_journal_restart,
        early_crash_degrades_then_reconciles,
        outage_without_journal,
        rpc_drops_and_storm,
    ],
    ids=lambda scenario: scenario.__name__,
)
def test_scenario_holds_on_a_two_shard_fleet(scenario, tmp_path):
    scenario(2, tmp_path)


def test_service_outage_composes_with_shard_crash(tmp_path):
    """One plan, both fault families: the whole fleet is unreachable for a
    while, and later one shard loses its memory and replays its own WAL."""
    plan = FaultPlan(
        outages=FaultPlan.single_crash(at=30.0, duration=40.0).outages,
        shard_crashes=(ShardCrash(at=90.0, shard=0, down_for=30.0),),
    )
    outcome = compare_with_faultless(
        chaos_config(shards=2, journal_root=tmp_path / "journal"), plan
    )
    assert outcome["both_succeeded"]
    assert outcome["staged_sets_equal"]
    assert outcome["leaked_in_progress"] == 0
    chaotic = outcome["chaotic"]
    assert chaotic.recovery_errors == []
    events = [msg for _, msg in chaotic.fault_log]
    assert any("shard 0 crashed" in e for e in events), events
    assert any("replayed from journal" in e for e in events), events
    assert len(chaotic.shard_health) == 2


#: shard faults that end on their own, with no crash and no journal replay
HEALS = {
    "partition": FaultPlan(partitions=(RouterPartition(at=10.0, duration=30.0, shard=0),)),
    "slowdown": FaultPlan(shard_slowdowns=(
        ShardSlowdown(at=40.0, duration=30.0, shard=0, timeout_rate=0.5),
    )),
}


@pytest.mark.parametrize("heal", sorted(HEALS))
def test_a_healed_shard_fault_reaps_no_finished_transfer(heal, tmp_path):
    """What shard 0 was owed while cut off lands when the fault heals, so
    the final lease sweep reaps nothing: no finished transfer is failed."""
    outcome = compare_with_faultless(
        chaos_config(shards=2, journal_root=tmp_path / "journal"), HEALS[heal]
    )
    chaotic = outcome["chaotic"]
    assert outcome["both_succeeded"] and outcome["staged_sets_equal"]
    assert chaotic.leaked_in_progress == 0
    assert chaotic.reaped == {"transfers": [], "cleanups": []}
    assert chaotic.owed == 0 and chaotic.recovery_errors == []
    assert len(chaotic.fault_log) == 2


def test_faultless_side_runs_unsharded_and_unjournaled(tmp_path):
    outcome = compare_with_faultless(
        chaos_config(shards=2, journal_root=tmp_path / "journal"), FaultPlan()
    )
    assert outcome["clean"].shard_health == []
    assert outcome["clean"].journal_commits == 0
    assert len(outcome["chaotic"].shard_health) == 2
    assert outcome["chaotic"].journal_commits > 0


# ------------------------------------- settings that used to be ignored
def test_config_shards_selects_a_fleet_and_accepts_shard_faults(tmp_path):
    """``cfg.shards`` used to be dropped by the chaos runner: the cell ran
    on one service and a shard fault died with 'no router attached'."""
    result = run_chaos_montage(chaos_config(shards=2))
    assert len(result.shard_health) == 2

    plan = FaultPlan.single_shard_crash(at=60.0, shard=0, down_for=30.0)
    result = run_chaos_montage(
        chaos_config(shards=2, journal_root=tmp_path / "journal"), plan=plan
    )
    assert result.metrics.success
    assert any("shard 0 crashed" in msg for _, msg in result.fault_log)


def test_removed_knobs_are_type_errors(tmp_path):
    for kwargs in ({"journal_dir": tmp_path}, {"retry": None}, {"breaker_reset": 60.0},
                   {"num_shards": 2}, {"journal_root": tmp_path}):
        with pytest.raises(TypeError):
            run_chaos_montage(chaos_config(), **kwargs)


def test_one_chaos_runner_and_one_traced_type():
    """The sharded runner / comparer and the ensemble-only traced type are
    gone: each module defines exactly what it exports."""
    from repro.experiments import chaos, tracing

    def defined_in(module):
        return {
            name for name, value in vars(module).items()
            if getattr(value, "__module__", None) == module.__name__
            and not name.startswith("_")
        }

    assert defined_in(chaos) == set(chaos.__all__) == {
        "ChaosResult", "run_chaos_montage", "compare_with_faultless",
    }
    assert {n for n in defined_in(tracing) if n[0].isupper()} == {"TracedRun"}
    assert defined_in(tracing) == set(tracing.__all__)


# ------------------------------------------------------ other single-service
def test_balanced_policy_survives_crash(tmp_path):
    cfg = chaos_config(
        policy="balanced", cluster_factor=2, journal_root=tmp_path / "journal"
    )
    plan = FaultPlan.single_crash(at=60.0, duration=120.0)
    outcome = compare_with_faultless(cfg, plan)
    assert outcome["both_succeeded"]
    assert outcome["staged_sets_equal"]
    assert outcome["chaotic"].leaked_in_progress == 0


def test_decision_records_survive_crash_recovery(tmp_path):
    """The journal-recovered service still explains its decisions: every
    retained record re-verifies its digest after replay, and the explain
    API answers for transfers granted both before and after the outage."""
    from repro.policy.provenance import decision_digest

    plan = FaultPlan.single_crash(at=60.0, duration=120.0)
    result = run_chaos_montage(
        chaos_config(journal_root=tmp_path / "journal"), plan=plan
    )
    assert result.metrics.success
    assert result.journal_commits > 0
    assert result.decisions, "post-recovery service holds no decision records"
    for record in result.decisions:
        assert record["digest"] == decision_digest(record)
    # Policy-derived records carry their causal chain through recovery.
    policied = [r for r in result.decisions if not r.get("policy_free")]
    assert policied and all(r["firings"] for r in policied)
