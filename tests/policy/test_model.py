"""Unit tests for policy configuration and DTOs."""

import dataclasses
import json

import pytest

from repro.policy import PolicyConfig, TransferAdvice
from repro.policy.model import CleanupAdvice, TransferFact


def test_config_defaults_match_paper():
    cfg = PolicyConfig()
    assert cfg.policy == "greedy"
    assert cfg.default_streams == 4
    assert cfg.max_streams == 50


def test_config_validation():
    with pytest.raises(ValueError):
        PolicyConfig(policy="nope")
    with pytest.raises(ValueError):
        PolicyConfig(default_streams=0)
    with pytest.raises(ValueError):
        PolicyConfig(max_streams=0)
    with pytest.raises(ValueError):
        PolicyConfig(order_by="random")
    with pytest.raises(ValueError):
        PolicyConfig(policy="balanced")  # needs cluster_count
    with pytest.raises(ValueError):
        PolicyConfig(policy="balanced", cluster_count=4, cluster_threshold=0)


@pytest.mark.parametrize("lease", [0.0, -1.0, float("nan")])
def test_lease_seconds_must_be_positive(lease):
    # A NaN lease passed a `<= 0` check: every grant carried a NaN
    # deadline that never expired, and a journaled service then refused
    # its own journal (nan != nan in the configuration fingerprint).
    with pytest.raises(ValueError, match="lease_seconds must be positive"):
        PolicyConfig(lease_seconds=lease)


def test_threshold_for_with_pair_override():
    cfg = PolicyConfig(max_streams=50, pair_thresholds={("a", "b"): 10})
    assert cfg.threshold_for("a", "b") == 10
    assert cfg.threshold_for("b", "a") == 50


def test_per_cluster_threshold():
    cfg = PolicyConfig(policy="balanced", max_streams=50, cluster_count=4)
    assert cfg.per_cluster_threshold() == 12
    cfg2 = PolicyConfig(policy="balanced", max_streams=50, cluster_count=4,
                        cluster_threshold=20)
    assert cfg2.per_cluster_threshold() == 20


def test_transfer_fact_parses_hosts():
    t = TransferFact(1, "wf", "job", "f", "gsiftp://src-host/d/f",
                     "gsiftp://dst-host/s/f", 100)
    assert t.src_host == "src-host"
    assert t.dst_host == "dst-host"
    assert t.status == "submitted"


def test_advice_roundtrip():
    a = TransferAdvice(tid=3, lfn="f", src_url="gsiftp://a/f", dst_url="gsiftp://b/f",
                       nbytes=10.0, action="transfer", streams=4, group_id=1)
    assert TransferAdvice.from_dict(a.to_dict()) == a
    c = CleanupAdvice(cid=1, lfn="f", url="gsiftp://b/f", action="delete")
    assert CleanupAdvice.from_dict(c.to_dict()) == c


@pytest.mark.parametrize("advice", [
    TransferAdvice(tid=3, lfn="f", src_url="gsiftp://a/f", dst_url="gsiftp://b/f",
                   nbytes=10.0, action="transfer", streams=4, group_id=1, priority=7),
    TransferAdvice(tid=4, lfn="g", src_url="gsiftp://a/g", dst_url="gsiftp://b/g",
                   nbytes=2.5, action="wait", reason="in progress", wait_for=3,
                   lease_deadline=120.5),
    CleanupAdvice(cid=1, lfn="f", url="gsiftp://b/f", action="delete"),
    CleanupAdvice(cid=2, lfn="g", url="gsiftp://b/g", action="skip",
                  reason="still in use", lease_deadline=60.0),
], ids=lambda a: f"{type(a).__name__}-{a.action}")
def test_advice_to_dict_is_asdict_byte_for_byte(advice):
    """``to_dict`` spells the fields out; the wire bytes (values and key
    order) must stay those of ``dataclasses.asdict``."""
    assert json.dumps(advice.to_dict()) == json.dumps(dataclasses.asdict(advice))
    assert type(advice).from_dict(json.loads(json.dumps(advice.to_dict()))) == advice
