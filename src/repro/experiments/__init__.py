"""The paper's evaluation harness.

* :mod:`repro.experiments.environment` — the simulated testbed standing in
  for the paper's: the ISI Obelix cluster (9 nodes x 6 cores, NFS over a
  1 Gbit LAN), a local web server holding Montage input images, and a
  FutureGrid-like VM reached over a WAN whose per-stream throughput
  matches the paper's quoted ~28 Mbit/s for a default 4-stream transfer;
* :mod:`repro.experiments.runner` — runs one experiment cell (one
  combination of policy, threshold, default streams, and extra-file size)
  and returns :class:`~repro.metrics.collectors.RunMetrics`
  (``build_policy_service`` turns the cell's config — ``shards``,
  ``journal_root`` — into its policy service, ``execute_workflow``
  returns the finished execution);
* :mod:`repro.experiments.chaos`, :mod:`repro.experiments.tracing` — the
  same cell under a fault plan (``run_chaos_montage``, any fleet size)
  and with the observability stack attached (``TracedRun``);
* :mod:`repro.experiments.figures` — series builders regenerating
  Table IV and Figs. 5-9.
"""

from repro.experiments.environment import TestbedParams, build_testbed
from repro.experiments.runner import (
    EnsembleResult,
    ExperimentConfig,
    run_cell,
    run_replicates,
    run_tenant_ensemble,
)
from repro.experiments.tracing import (
    TracedRun,
    run_traced_cell,
    run_traced_ensemble,
    run_traced_workflow,
)

__all__ = [
    "EnsembleResult",
    "ExperimentConfig",
    "TestbedParams",
    "TracedRun",
    "build_testbed",
    "run_cell",
    "run_replicates",
    "run_tenant_ensemble",
    "run_traced_cell",
    "run_traced_ensemble",
    "run_traced_workflow",
]
