"""Executable-workflow data model (the planner's output)."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.workflow.graph import Dag

__all__ = [
    "JobKind",
    "TransferSpec",
    "ExecutableJob",
    "ExecutableWorkflow",
    "PlanningError",
]


class PlanningError(ValueError):
    """Raised when an abstract workflow cannot be planned."""


class JobKind(str, Enum):
    """Category of an executable job (used for engine throttles)."""

    COMPUTE = "compute"
    STAGE_IN = "stage-in"
    STAGE_OUT = "stage-out"
    CLEANUP = "cleanup"


@dataclass
class TransferSpec:
    """One file movement inside a staging job."""

    lfn: str
    src_url: str
    dst_url: str
    nbytes: float

    def __post_init__(self) -> None:
        if not self.lfn or not self.src_url or not self.dst_url:
            raise PlanningError("transfer spec requires lfn and both urls")
        if self.nbytes < 0:
            raise PlanningError(f"transfer {self.lfn!r}: negative size")


@dataclass
class ExecutableJob:
    """A planned job.

    ``transform`` is set for compute jobs (runtime model lookup);
    ``transfers`` for staging jobs; ``cleanup_files`` (lfn, url) pairs for
    cleanup jobs.  ``priority`` is filled when the plan options request a
    structure-based priority algorithm; staging jobs inherit the priority
    of the compute job they feed.

    ``input_files`` lists the (lfn, size) pairs a compute job reads from
    the execution site's scratch space — its workflow inputs minus those
    satisfied by a pre-existing local replica.  The planner fills it so
    plan-level data-flow analysis (:mod:`repro.analysis.planlint`) can
    match consumers to producers/stage-ins exactly.
    """

    id: str
    kind: JobKind
    transform: Optional[str] = None
    site: str = ""
    transfers: list[TransferSpec] = field(default_factory=list)
    cleanup_files: list[tuple[str, str]] = field(default_factory=list)
    output_files: list[tuple[str, float]] = field(default_factory=list)
    input_files: list[tuple[str, float]] = field(default_factory=list)
    priority: int = 0
    source_jobs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise PlanningError("executable job requires an id")
        if self.kind == JobKind.COMPUTE and not self.transform:
            raise PlanningError(f"compute job {self.id!r} requires a transform")


class ExecutableWorkflow(Dag):
    """A DAG of :class:`ExecutableJob` with explicit edges."""

    error = PlanningError

    def __init__(self, name: str, workflow_id: str):
        if not name or not workflow_id:
            raise PlanningError("executable workflow requires name and id")
        self.name = name
        self.workflow_id = workflow_id
        self.jobs: dict[str, ExecutableJob] = {}
        self._edges: set[tuple[str, str]] = set()
        #: clustering factor used during planning (None = no clustering)
        self.cluster_factor: Optional[int] = None

    def add_job(self, job: ExecutableJob) -> ExecutableJob:
        if job.id in self.jobs:
            raise PlanningError(f"duplicate executable job {job.id!r}")
        self.jobs[job.id] = job
        self._mutated()
        return job

    def add_edge(self, parent_id: str, child_id: str) -> None:
        self._check_edge(parent_id, child_id)
        self._edges.add((parent_id, child_id))
        self._mutated()

    def edges(self) -> set[tuple[str, str]]:
        return set(self._edges)

    def by_kind(self, kind: JobKind) -> list[ExecutableJob]:
        return [j for jid, j in sorted(self.jobs.items()) if j.kind == kind]

    def kind_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for job in self.jobs.values():
            counts[job.kind.value] = counts.get(job.kind.value, 0) + 1
        return counts
