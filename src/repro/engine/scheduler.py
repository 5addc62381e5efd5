"""Cluster compute-slot scheduler.

Models the Obelix cluster's batch execution: a fixed pool of slots
(nodes x cores), a per-job submission overhead (scheduler latency), and
deterministic per-job runtimes sampled from the transformation catalog by
the caller.
"""

from __future__ import annotations

from repro.des import Environment, PriorityResource

__all__ = ["ClusterScheduler"]


class ClusterScheduler:
    """A slot pool with submission overhead.

    Parameters
    ----------
    env:
        Simulation environment.
    slots:
        Concurrent job capacity (nodes x cores-per-node).
    submit_overhead:
        Seconds of scheduling latency charged per job before it runs.
    """

    def __init__(self, env: Environment, slots: int, submit_overhead: float = 0.5):
        if slots < 1:
            raise ValueError("slots must be >= 1")
        if not submit_overhead >= 0:  # NaN too
            raise ValueError(f"submit_overhead must be >= 0, got {submit_overhead}")
        self.env = env
        self.slots = slots
        self.submit_overhead = submit_overhead
        self._pool = PriorityResource(env, capacity=slots)
        self.jobs_run = 0
        self.busy_time = 0.0

    def run_job(self, runtime: float, priority: int = 0):
        """Process generator: occupy one slot for ``runtime`` seconds.

        ``priority``: higher runs earlier when the pool is contended.
        """
        if runtime < 0:
            raise ValueError("runtime must be >= 0")
        request = self._pool.request(priority=-priority)
        yield request
        try:
            start = self.env.now
            yield self.env.timeout(self.submit_overhead + runtime)
            self.busy_time += self.env.now - start
            self.jobs_run += 1
        finally:
            self._pool.release(request)
