"""The paper's evaluation harness.

* :mod:`repro.experiments.environment` — the simulated testbed standing in
  for the paper's: the ISI Obelix cluster (9 nodes x 6 cores, NFS over a
  1 Gbit LAN), a local web server holding Montage input images, and a
  FutureGrid-like VM reached over a WAN whose per-stream throughput
  matches the paper's quoted ~28 Mbit/s for a default 4-stream transfer;
* :mod:`repro.experiments.runner` — runs one experiment cell (one
  combination of policy, threshold, default streams, and extra-file size)
  and returns :class:`~repro.experiments.runner.RunMetrics`
  (``build_policy_service`` turns the cell's config — ``shards``,
  ``journal_root`` — into its policy service, ``execute_workflow``
  returns the finished execution);
* :mod:`repro.experiments.chaos`, :mod:`repro.experiments.tracing` — the
  same cell under a fault plan (``run_chaos_montage``, any fleet size)
  and with the observability stack attached (``TracedRun``), plus a run's
  provenance document (``run_provenance``, ``ascii_timeline``);
* :mod:`repro.experiments.figures` — series builders regenerating
  Table IV and Figs. 5-9, and their terminal tables and plots.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.experiments.environment import TestbedParams, build_testbed
    from repro.experiments.figures import Series, ascii_series_plot, format_series_table
    from repro.experiments.runner import (
        EnsembleResult, ExperimentConfig, RunMetrics, run_cell, run_replicates,
        run_tenant_ensemble,
    )
    from repro.experiments.tracing import (
        TracedRun, ascii_timeline, run_provenance, run_traced_cell, run_traced_ensemble,
        run_traced_workflow,
    )

_EXPORTS = {  # name -> the module it is imported from
    "EnsembleResult": ".runner", "ExperimentConfig": ".runner", "RunMetrics": ".runner",
    "Series": ".figures", "TestbedParams": ".environment", "TracedRun": ".tracing",
    "ascii_series_plot": ".figures", "ascii_timeline": ".tracing", "build_testbed": ".environment",
    "format_series_table": ".figures", "run_cell": ".runner", "run_provenance": ".tracing",
    "run_replicates": ".runner", "run_tenant_ensemble": ".runner", "run_traced_cell": ".tracing",
    "run_traced_ensemble": ".tracing", "run_traced_workflow": ".tracing",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
