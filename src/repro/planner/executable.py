"""Executable-workflow data model (the planner's output)."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import networkx as nx

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

    @property
    def total_bytes(self) -> float:
        return sum(t.nbytes for t in self.transfers)


class ExecutableWorkflow:
    """A DAG of :class:`ExecutableJob` with explicit edges."""

    def __init__(self, name: str, workflow_id: str):
        if not name or not workflow_id:
            raise PlanningError("executable workflow requires name and id")
        self.name = name
        self.workflow_id = workflow_id
        self.jobs: dict[str, ExecutableJob] = {}
        self._edges: set[tuple[str, str]] = set()
        self._graph_cache: Optional[nx.DiGraph] = None
        self._adjacency: Optional[tuple[dict[str, list[str]], dict[str, list[str]]]] = None
        self._acyclic = False  # validate()'s verdict, until the next mutation
        #: clustering factor used during planning (None = no clustering)
        self.cluster_factor: Optional[int] = None

    def add_job(self, job: ExecutableJob) -> ExecutableJob:
        if job.id in self.jobs:
            raise PlanningError(f"duplicate executable job {job.id!r}")
        self.jobs[job.id] = job
        self._mutated()
        return job

    def add_edge(self, parent_id: str, child_id: str) -> None:
        if parent_id not in self.jobs or child_id not in self.jobs:
            raise PlanningError(f"edge references unknown job: {parent_id} -> {child_id}")
        if parent_id == child_id:
            raise PlanningError("self edge")
        self._edges.add((parent_id, child_id))
        self._mutated()

    def _mutated(self) -> None:
        self._graph_cache = self._adjacency = None
        self._acyclic = False

    # -- structure ------------------------------------------------------------
    def adjacency(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """``(children, parents)``: per job, the id-sorted neighbour lists.

        Built once per mutation and shared — callers must not modify them.
        Sorted so successor iteration in DAGMan is independent of
        set-iteration / hash randomization: a given seed must replay
        identically across processes.
        """
        if self._adjacency is None:
            children: dict[str, list[str]] = {jid: [] for jid in self.jobs}
            parents: dict[str, list[str]] = {jid: [] for jid in self.jobs}
            for parent, child in sorted(self._edges):
                children[parent].append(child)
                parents[child].append(parent)
            self._adjacency = (children, parents)
        return self._adjacency

    def graph(self) -> nx.DiGraph:
        """A networkx view of the plan (same successor order as ``adjacency``)."""
        if self._graph_cache is None:
            g = nx.DiGraph()
            g.add_nodes_from(self.jobs)
            g.add_edges_from(sorted(self._edges))
            self._graph_cache = g
        return self._graph_cache

    def validate(self) -> None:
        if self._acyclic:
            return
        children, parents = self.adjacency()
        # Kahn's algorithm: a job left with unreleased parents is on a cycle.
        waiting = {jid: len(ps) for jid, ps in parents.items()}
        released = [jid for jid, count in waiting.items() if count == 0]
        for jid in released:  # grows while iterated
            for child in children[jid]:
                waiting[child] -= 1
                if waiting[child] == 0:
                    released.append(child)
        if len(released) != len(self.jobs):
            raise PlanningError("executable workflow has a cycle")
        self._acyclic = True

    def parents(self, job_id: str) -> list[str]:
        return list(self.adjacency()[1][job_id])

    def children(self, job_id: str) -> list[str]:
        return list(self.adjacency()[0][job_id])

    def edges(self) -> set[tuple[str, str]]:
        return set(self._edges)

    def topological_order(self) -> list[str]:
        self.validate()
        return list(nx.lexicographical_topological_sort(self.graph()))

    def by_kind(self, kind: JobKind) -> list[ExecutableJob]:
        return [j for jid, j in sorted(self.jobs.items()) if j.kind == kind]

    def kind_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for job in self.jobs.values():
            counts[job.kind.value] = counts.get(job.kind.value, 0) + 1
        return counts

    def levels(self) -> dict[str, int]:
        self.validate()
        parents = self.adjacency()[1]
        level: dict[str, int] = {}
        for node in nx.topological_sort(self.graph()):
            level[node] = 1 + max((level[p] for p in parents[node]), default=-1)
        return level

    def __len__(self) -> int:
        return len(self.jobs)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ExecutableWorkflow({self.name!r}, {self.kind_counts()})"
