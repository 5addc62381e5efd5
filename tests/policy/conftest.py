"""Shared policy-test helpers."""

import pytest

from repro.policy import PolicyConfig, PolicyService


def spec(lfn, src="gsiftp://fg-vm/data", dst="gsiftp://obelix/scratch",
         nbytes=1000.0, streams=None, priority=0, cluster=None):
    """Build a transfer-request dict with sensible defaults."""
    item = {
        "lfn": lfn,
        "src_url": f"{src}/{lfn}",
        "dst_url": f"{dst}/{lfn}",
        "nbytes": nbytes,
    }
    if streams is not None:
        item["streams"] = streams
    if priority:
        item["priority"] = priority
    if cluster:
        item["cluster"] = cluster
    return item


@pytest.fixture
def greedy_service():
    return PolicyService(PolicyConfig(policy="greedy", default_streams=4, max_streams=50))


@pytest.fixture
def fifo_service():
    return PolicyService(PolicyConfig(policy="fifo", default_streams=4))


def cleanup_record(service, cid: int) -> dict:
    """The decision record of cleanup ``cid`` in the service's log."""
    return next(
        r for r in service.decision_records() if r["kind"] != "transfer" and r["cid"] == cid
    )
