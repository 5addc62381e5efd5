"""Unit tests for the steady staging campaign runner."""

import pytest

from repro.experiments.campaign import CampaignConfig, run_staging_campaign


def small(**kw):
    defaults = dict(n_transfers=30, transfer_mb=50, workers=8, seed=2)
    defaults.update(kw)
    return CampaignConfig(**defaults)


def test_validation():
    with pytest.raises(ValueError):
        CampaignConfig(n_transfers=0)
    with pytest.raises(ValueError):
        CampaignConfig(workers=0)
    with pytest.raises(ValueError):
        CampaignConfig(transfer_mb=0)
    with pytest.raises(ValueError):
        CampaignConfig(transfer_mb=float("nan"))


def test_campaign_moves_all_bytes():
    result = run_staging_campaign(small())
    assert result.transfers_done == 30
    assert result.bytes_moved == pytest.approx(30 * 50e6, rel=0.03)
    assert result.duration > 0
    assert result.aggregate_throughput > 0


def test_no_policy_campaign_runs():
    result = run_staging_campaign(small(policy=None))
    assert result.transfers_done == 30
    assert result.threshold_history == []
    assert result.final_threshold is None


def test_policy_enforces_threshold_on_campaign():
    result = run_staging_campaign(small(threshold=20, default_streams=8))
    # 2 x 8 + 4 + rest singles for the first wave of 8 workers.
    assert result.peak_streams <= 20 + 8


def test_adaptive_campaign_records_history():
    result = run_staging_campaign(
        small(n_transfers=120, transfer_mb=200, threshold=200, adaptive=True)
    )
    assert result.final_threshold is not None
    assert len(result.threshold_history) > 0
    # Starting far above the knee, the controller moves down overall.
    assert result.final_threshold < 200


def test_deterministic_per_seed():
    a = run_staging_campaign(small(seed=5))
    b = run_staging_campaign(small(seed=5))
    assert a.duration == b.duration
