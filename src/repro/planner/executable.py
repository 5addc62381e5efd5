"""Executable-workflow data model (the planner's output)."""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.workflow.graph import Adjacency, Dag

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


@dataclass(slots=True)
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


@dataclass(slots=True)
class ExecutableJob:
    """A planned job.

    ``transform`` is set for compute jobs (runtime model lookup);
    ``transfers`` for staging jobs; ``cleanup_files`` (lfn, url) pairs for
    cleanup jobs; a sequence a job does not use is the shared ``()``, and
    the planner builds the file sequences as tuples.
    ``priority`` is filled when the plan options request a structure-based
    priority algorithm; staging jobs inherit that of the compute job they feed.

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
    transfers: Sequence[TransferSpec] = ()
    cleanup_files: Sequence[tuple[str, str]] = ()
    output_files: Sequence[tuple[str, float]] = ()
    input_files: Sequence[tuple[str, float]] = ()
    priority: int = 0
    source_jobs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise PlanningError("executable job requires an id")
        if self.kind == JobKind.COMPUTE and not self.transform:
            raise PlanningError(f"compute job {self.id!r} requires a transform")


#: the neighbour list of a job without edges on that side, shared by all
#: of them (a plan's cleanup jobs never get a child); never modified
_NO_EDGES: list[str] = []


class ExecutableWorkflow(Dag):
    """A DAG of :class:`ExecutableJob` with explicit edges.

    The plan stores its edges once, as the id-sorted ``children`` /
    ``parents`` lists :meth:`adjacency` returns and DAGMan walks;
    :meth:`edges` is derived from them.  A job's list on either side is
    the shared empty ``_NO_EDGES`` until its first edge there.
    """

    error = PlanningError

    def __init__(self, name: str, workflow_id: str):
        if not name or not workflow_id:
            raise PlanningError("executable workflow requires name and id")
        self.name = name
        self.workflow_id = workflow_id
        self.jobs: dict[str, ExecutableJob] = {}
        self._children: dict[str, list[str]] = {}
        self._parents: dict[str, list[str]] = {}
        #: clustering factor used during planning (None = no clustering)
        self.cluster_factor: Optional[int] = None

    def add_job(self, job: ExecutableJob) -> ExecutableJob:
        if job.id in self.jobs:
            raise PlanningError(f"duplicate executable job {job.id!r}")
        self.jobs[job.id] = job
        self._children[job.id] = self._parents[job.id] = _NO_EDGES
        self._mutated()
        return job

    def add_edge(self, parent_id: str, child_id: str) -> None:
        """Add ``parent -> child``; adding an edge the plan has is a no-op."""
        self._check_edge(parent_id, child_id)
        children = self._children[parent_id]
        at = bisect_left(children, child_id)  # the end, for an id that sorts last
        if at < len(children) and children[at] == child_id:
            return
        if children is _NO_EDGES:
            children = self._children[parent_id] = []
        children.insert(at, child_id)
        parents = self._parents[child_id]
        if parents is _NO_EDGES:
            parents = self._parents[child_id] = []
        insort(parents, parent_id)
        self._mutated()

    def adjacency(self) -> Adjacency:
        return self._children, self._parents

    def edges(self) -> set[tuple[str, str]]:
        return {(parent, child) for parent, cs in self._children.items() for child in cs}

    def by_kind(self, kind: JobKind) -> list[ExecutableJob]:
        return [j for jid, j in sorted(self.jobs.items()) if j.kind == kind]

    def kind_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for job in self.jobs.values():
            counts[job.kind.value] = counts.get(job.kind.value, 0) + 1
        return counts
