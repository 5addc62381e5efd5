"""repro — policy-driven data staging for scientific workflows.

A full reproduction of *"Integrating Policy with Scientific Workflow
Management for Data-Intensive Applications"* (Chervenak, Smith, Chen,
Deelman — SC 2012): a **Policy Service** that advises a Pegasus-like
workflow manager on data staging (de-duplication, safe cross-workflow
sharing, host-pair grouping, greedy/balanced parallel-stream allocation),
plus every substrate the paper depends on, built from scratch:

* a discrete-event simulation kernel (:mod:`repro.des`),
* a Drools-like production rule engine (:mod:`repro.rules`),
* a simulated GridFTP/WAN transfer fabric (:mod:`repro.net`),
* Pegasus-style catalogs, planner, and DAGMan-like executor
  (:mod:`repro.catalogs`, :mod:`repro.planner`, :mod:`repro.engine`),
* the Montage workflow generator and the paper's evaluation harness
  (:mod:`repro.workflow`, :mod:`repro.experiments`).

Quickstart
----------
>>> from repro import PolicyConfig, PolicyService
>>> service = PolicyService(PolicyConfig(policy="greedy", max_streams=50))
>>> advice = service.submit_transfers(
...     "wf-1", "stage_in_job", [{
...         "lfn": "data.fits",
...         "src_url": "gsiftp://remote/data.fits",
...         "dst_url": "gsiftp://cluster/scratch/data.fits",
...         "nbytes": 2_000_000, "streams": 8,
...     }])
>>> advice[0].action, advice[0].streams
('transfer', 8)

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
paper's tables and figures.
"""

from repro.catalogs import ReplicaCatalog, SiteCatalog, SiteEntry, TransformationCatalog
from repro.engine import (
    CleanupTool,
    ClusterScheduler,
    DAGMan,
    PegasusTransferTool,
    StorageTracker,
)
from repro.experiments import ExperimentConfig, TestbedParams, build_testbed, run_cell
from repro.experiments.campaign import CampaignConfig, run_staging_campaign
from repro.experiments.runner import (
    WorkflowExecution,
    run_concurrent_workflows,
    run_replicates,
    run_workflow,
)
from repro.metrics import RunMetrics, ascii_timeline, run_provenance
from repro.planner import JobKind, Planner, PlanOptions, constrain_staging_footprint
from repro.policy import (
    InProcessPolicyClient,
    PolicyConfig,
    PolicyService,
    max_streams_table,
)
from repro.policy.adaptive import AdaptiveSettings, AdaptiveThresholdController
from repro.policy.client import HTTPPolicyClient
from repro.policy.rest import PolicyRestServer
from repro.policy.tuning import ThresholdTuner
from repro.workflow import (
    File,
    Job,
    MontageConfig,
    Workflow,
    augmented_montage,
    cybershake_workflow,
    epigenomics_workflow,
    montage_workflow,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveSettings",
    "AdaptiveThresholdController",
    "CampaignConfig",
    "CleanupTool",
    "ClusterScheduler",
    "DAGMan",
    "ExperimentConfig",
    "File",
    "HTTPPolicyClient",
    "InProcessPolicyClient",
    "Job",
    "JobKind",
    "MontageConfig",
    "PegasusTransferTool",
    "PlanOptions",
    "Planner",
    "PolicyConfig",
    "PolicyRestServer",
    "PolicyService",
    "ReplicaCatalog",
    "RunMetrics",
    "SiteCatalog",
    "SiteEntry",
    "StorageTracker",
    "TestbedParams",
    "ThresholdTuner",
    "TransformationCatalog",
    "Workflow",
    "WorkflowExecution",
    "ascii_timeline",
    "augmented_montage",
    "build_testbed",
    "constrain_staging_footprint",
    "cybershake_workflow",
    "epigenomics_workflow",
    "max_streams_table",
    "montage_workflow",
    "run_cell",
    "run_concurrent_workflows",
    "run_provenance",
    "run_replicates",
    "run_staging_campaign",
    "run_workflow",
]
