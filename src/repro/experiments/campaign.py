"""Steady-state staging campaigns.

A *campaign* is a long sequence of large transfers executed by a fixed
pool of staging workers — the "emerging big data applications that will
stage increasing amounts of data" the paper motivates with, without a
compute DAG around it.  Unlike the wave-synchronized Montage staging
phase, a campaign applies steady load to the WAN, which is the setting
where the runtime-adaptive threshold controller has a clean throughput
signal to learn from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.environment import Testbed, TestbedParams, build_testbed
from repro.policy import InProcessPolicyClient, PolicyConfig, PolicyService

__all__ = ["CampaignConfig", "CampaignResult", "run_staging_campaign"]

MB = 1_000_000


@dataclass(frozen=True)
class CampaignConfig:
    """A staging campaign: ``n_transfers`` files of ``transfer_mb`` MB moved
    from the remote site by ``workers`` concurrent staging workers."""

    n_transfers: int = 200
    transfer_mb: float = 200.0
    workers: int = 20
    default_streams: int = 8
    policy: Optional[str] = "greedy"
    threshold: int = 50
    adaptive: bool = False
    seed: int = 0
    testbed: TestbedParams = TestbedParams()

    def __post_init__(self) -> None:
        if self.n_transfers < 1 or self.workers < 1:
            raise ValueError("n_transfers and workers must be >= 1")
        if not self.transfer_mb > 0:  # NaN too
            raise ValueError("transfer_mb must be positive")


@dataclass
class CampaignResult:
    """Outcome of a campaign run."""

    duration: float
    bytes_moved: float
    transfers_done: int
    peak_streams: int
    threshold_history: list[tuple[float, int, float]]
    final_threshold: Optional[int]

    @property
    def aggregate_throughput(self) -> float:
        return self.bytes_moved / self.duration if self.duration > 0 else 0.0


def run_staging_campaign(cfg: CampaignConfig, bed: Optional[Testbed] = None) -> CampaignResult:
    """Run a campaign; returns aggregate results + the adaptation trace."""
    bed = bed or build_testbed(cfg.testbed, seed=cfg.seed)
    env = bed.env

    policy_client: Optional[InProcessPolicyClient] = None
    if cfg.policy is not None:
        service = PolicyService(
            PolicyConfig(
                policy=cfg.policy,
                default_streams=cfg.default_streams,
                max_streams=cfg.threshold,
                adaptive=cfg.adaptive,
            ),
            clock=lambda: env.now,
        )
        policy_client = InProcessPolicyClient(
            service, env, latency=cfg.testbed.policy_latency
        )

    nbytes = cfg.transfer_mb * MB
    queue = list(range(cfg.n_transfers))
    done_count = [0]

    def worker(worker_id: int):
        while queue:
            index = queue.pop(0)
            lfn = f"campaign_{index:05d}.dat"
            src = f"gsiftp://fg-vm/data/{lfn}"
            dst = f"gsiftp://obelix/nfs/scratch/{lfn}"
            if policy_client is None:
                yield from bed.gridftp.transfer(src, dst, nbytes, cfg.default_streams)
            else:
                advice = yield from policy_client.submit_transfers(
                    f"campaign-w{worker_id}",
                    f"transfer_{index}",
                    [{"lfn": lfn, "src_url": src, "dst_url": dst,
                      "nbytes": nbytes, "streams": cfg.default_streams}],
                )
                for item in advice:
                    if item.action != "transfer":  # pragma: no cover
                        continue
                    yield from bed.gridftp.transfer(
                        item.src_url, item.dst_url, item.nbytes, item.streams
                    )
                    yield from policy_client.complete_transfers(done=[item.tid])
            done_count[0] += 1

    processes = [
        env.process(worker(i), name=f"campaign-worker-{i}")
        for i in range(cfg.workers)
    ]
    env.run(until=env.all_of(processes))

    history: list[tuple[float, int, float]] = []
    final_threshold: Optional[int] = None
    if policy_client is not None and policy_client.service.adaptive is not None:
        controller = policy_client.service.adaptive
        history = controller.history("fg-vm", "obelix")
        final_threshold = controller.threshold_for("fg-vm", "obelix", env.now)

    return CampaignResult(
        duration=env.now,
        bytes_moved=bed.fabric.bytes_moved,
        transfers_done=done_count[0],
        peak_streams=bed.fabric.peak_streams.get("wan", 0),
        threshold_history=history,
        final_threshold=final_threshold,
    )
