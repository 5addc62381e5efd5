"""Shared staged-data-catalog test helpers."""

import pytest

from repro.datacatalog.model import CatalogConfig
from repro.policy import PolicyConfig, PolicyService


class Clock:
    """A controllable simulation clock for deterministic LRU ordering."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def catalog_config(**kwargs) -> CatalogConfig:
    kwargs.setdefault("site_capacity", {"obelix": 2500.0})
    return CatalogConfig(**kwargs)


def make_service(journal=None, clock=None, config=None, **kwargs):
    policy_config = PolicyConfig(
        policy="greedy",
        default_streams=4,
        max_streams=50,
        catalog=config if config is not None else catalog_config(**kwargs),
    )
    return PolicyService(policy_config, clock=clock or Clock(), journal=journal)


def spec(lfn, src_host="fg-vm", dst_host="obelix", nbytes=1000.0):
    return {
        "lfn": lfn,
        "src_url": f"gsiftp://{src_host}/data/{lfn}",
        "dst_url": f"gsiftp://{dst_host}/scratch/{lfn}",
        "nbytes": nbytes,
    }


def stage(service, workflow, specs, job="j"):
    """Submit + complete the given transfer specs; returns the completion
    response (which carries any eviction victims)."""
    advice = service.submit_transfers(workflow, job, specs)
    done = [a.tid for a in advice if a.action == "transfer"]
    return service.complete_transfers(done=done)


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def service(clock):
    return make_service(clock=clock)
