"""Abstract scientific workflows (DAGs of jobs and files).

* :mod:`repro.workflow.dag` — ``File``, ``Job``, ``Workflow`` with data-flow
  derived dependencies, validation and traversals;
* :mod:`repro.workflow.montage` — the Montage mosaicking workflow generator
  used in the paper's evaluation (plus the big-data staging augmentation);
* :mod:`repro.workflow.synthetic` — the Epigenomics- and CyberShake-like
  generators of the non-Montage ablations and benchmarks;
* :mod:`repro.workflow.priorities` — the paper's structure-based priority
  algorithms (BFS, DFS, direct-dependent-based, dependent-based).

Workflows are built in code; no workflow file format is read or written.
"""

from repro.workflow.dag import File, Job, Workflow, WorkflowError
from repro.workflow.montage import MontageConfig, augmented_montage, montage_workflow
from repro.workflow.priorities import (
    bfs_priorities,
    dependent_priorities,
    dfs_priorities,
    direct_dependent_priorities,
)
from repro.workflow.synthetic import cybershake_workflow, epigenomics_workflow

__all__ = [
    "File",
    "Job",
    "MontageConfig",
    "Workflow",
    "WorkflowError",
    "augmented_montage",
    "bfs_priorities",
    "cybershake_workflow",
    "dependent_priorities",
    "dfs_priorities",
    "direct_dependent_priorities",
    "epigenomics_workflow",
    "montage_workflow",
]
