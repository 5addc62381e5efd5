"""The service's metrics registry: the one home of its counters."""

import pytest

from repro.obs import Hooks, MetricsRegistry
from repro.policy import PolicyConfig, PolicyService

from tests.conftest import counter

#: every counter the service keeps, by family and label
COUNTERS = [
    ("repro_policy_transfers_total", {"event": event})
    for event in ("requests", "submitted", "approved", "skipped", "waited",
                  "denied", "reaped")
] + [
    ("repro_policy_cleanups_total", {"event": event})
    for event in ("requests", "submitted", "approved", "skipped", "reaped")
] + [
    ("repro_policy_staged_reconciled_total", {}),
    ("repro_policy_rule_firings_total", {}),
]


def specs(*lfns):
    return [
        {
            "lfn": lfn,
            "src_url": f"gsiftp://fg-vm/data/{lfn}",
            "dst_url": f"gsiftp://obelix/scratch/{lfn}",
            "nbytes": 100,
        }
        for lfn in lfns
    ]


@pytest.fixture
def service():
    return PolicyService(PolicyConfig(policy="greedy", max_streams=50))


def test_registry_holds_every_counter_from_the_start(service):
    census = service.snapshot()["metrics"]
    for family, labels in COUNTERS:
        assert counter(service, family, **labels) == 0
        suffix = "".join(f'{{{k}="{v}"}}' for k, v in labels.items())
        assert census[family][family + suffix] == 0.0


def test_registry_counts_requests_outcomes_and_firings(service):
    advice = service.submit_transfers("wf", "j", specs("a", "b"))
    transfers = "repro_policy_transfers_total"
    assert counter(service, transfers, event="requests") == 1  # batches, as always
    assert counter(service, transfers, event="approved") == 2
    assert counter(service, "repro_policy_rule_firings_total") > 0
    service.complete_transfers(done=[a.tid for a in advice])
    # A duplicate submission is skipped.
    service.submit_transfers("wf2", "j2", specs("a"))
    assert counter(service, transfers, event="skipped") == 1


def test_calls_and_batch_metrics(service):
    service.submit_transfers("wf", "j", specs("a", "b", "c"))
    calls = service.metrics.get("repro_policy_calls_total")
    assert calls.value(call="submit_transfers") == 1
    text = service.metrics_text()
    assert 'repro_policy_batch_size_bucket{kind="transfers",le="5"} 1' in text
    assert 'repro_policy_call_seconds_count{call="submit_transfers"} 1' in text


def test_snapshot_has_metrics_namespace(service):
    service.submit_transfers("wf", "j", specs("x"))
    snap = service.snapshot()
    assert "stats" not in snap
    metrics = snap["metrics"]
    assert metrics["repro_policy_transfers_total"][
        'repro_policy_transfers_total{event="approved"}'
    ] == 1.0
    assert metrics["repro_policy_id_highwater"][
        'repro_policy_id_highwater{kind="tid"}'
    ] == 1.0


def test_retained_gauge_counts_what_the_service_holds(service):
    advice = service.submit_transfers("wf", "j", specs("a", "b"))
    service.complete_transfers(done=[a.tid for a in advice])
    text = service.metrics_text()
    held = {
        "facts": len(service.memory),
        "changes": service.memory.retained_changes,
        "decisions": len(service.decisions),
    }
    assert held["facts"] and held["changes"] and held["decisions"] == 2
    for kind, value in held.items():
        assert f'repro_policy_retained{{kind="{kind}"}} {value}' in text
    held_bytes = service.decisions.nbytes
    assert held_bytes > 0
    assert f'repro_policy_retained_bytes{{kind="decisions"}} {held_bytes}' in text
    gauge = service.snapshot()["metrics"]["repro_policy_retained"]
    assert gauge['repro_policy_retained{kind="decisions"}'] == 2.0


def test_shared_registry_is_used_not_copied():
    registry = MetricsRegistry()
    service = PolicyService(PolicyConfig(policy="greedy"), hooks=Hooks(metrics=registry))
    assert service.metrics is registry
    service.submit_transfers("wf", "j", specs("a"))
    assert registry.get("repro_policy_transfers_total").value(event="approved") == 1


def test_journal_commits_metered(tmp_path):
    from repro.policy.journal import PolicyJournal

    service = PolicyService(
        PolicyConfig(policy="greedy"), journal=PolicyJournal(tmp_path)
    )
    service.submit_transfers("wf", "j", specs("a"))
    commits = service.metrics.get("repro_policy_journal_commits_total").value()
    assert commits >= 1
    text = service.metrics_text()
    assert "repro_policy_journal_commit_seconds_count" in text


def test_recovered_service_keeps_the_registry(tmp_path):
    from repro.policy.journal import PolicyJournal

    registry = MetricsRegistry()
    config = PolicyConfig(policy="greedy")
    service = PolicyService(
        config, journal=PolicyJournal(tmp_path), hooks=Hooks(metrics=registry)
    )
    service.submit_transfers("wf", "j", specs("a"))
    before = registry.get("repro_policy_transfers_total").value(event="approved")
    recovered = PolicyService.recover(tmp_path, config=config, hooks=Hooks(metrics=registry))
    assert recovered.metrics is registry
    recovered.submit_transfers("wf2", "j2", specs("b"))
    after = registry.get("repro_policy_transfers_total").value(event="approved")
    assert after == before + 1  # counters accumulate across the restart
