"""Abstract workflow DAG: files, jobs, and data-flow dependencies.

A :class:`Workflow` is a DAG whose edges are *derived from data flow*: if
job A outputs a file that job B inputs, A precedes B.  Explicit control
edges can be added as well.  Validation enforces acyclicity, single
producers per file, and consistent file sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.workflow.graph import Dag

__all__ = ["File", "Job", "Workflow", "WorkflowError"]


class WorkflowError(ValueError):
    """Raised for malformed workflows (cycles, duplicate producers...)."""


@dataclass(frozen=True)
class File:
    """A logical file: name + size in bytes."""

    lfn: str
    size: float = 0.0

    def __post_init__(self) -> None:
        if not self.lfn:
            raise WorkflowError("file requires a logical file name")
        try:
            valid = 0 <= self.size < math.inf  # False for NaN
        except TypeError:
            valid = False
        if not valid:
            raise WorkflowError(f"file {self.lfn!r}: size {self.size!r} is not a finite size >= 0")


@dataclass(frozen=True)
class Job:
    """An abstract compute job.

    ``transform`` names the executable (resolved through the transformation
    catalog); ``inputs``/``outputs`` are :class:`File` tuples.
    """

    id: str
    transform: str
    inputs: tuple[File, ...] = ()
    outputs: tuple[File, ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise WorkflowError("job requires an id")
        if not self.transform:
            raise WorkflowError(f"job {self.id!r}: requires a transform name")
        in_names = [f.lfn for f in self.inputs]
        if len(set(in_names)) != len(in_names):
            raise WorkflowError(f"job {self.id!r}: duplicate input files")
        out_names = [f.lfn for f in self.outputs]
        if len(set(out_names)) != len(out_names):
            raise WorkflowError(f"job {self.id!r}: duplicate output files")
        if set(in_names) & set(out_names):
            raise WorkflowError(f"job {self.id!r}: file both input and output")


class Workflow(Dag):
    """A named DAG of jobs with data-flow dependencies."""

    error = WorkflowError

    def __init__(self, name: str):
        if not name:
            raise WorkflowError("workflow requires a name")
        self.name = name
        self.jobs: dict[str, Job] = {}
        self._producer: dict[str, str] = {}      # lfn -> job id
        self._consumers: dict[str, list[str]] = {}  # lfn -> job ids
        self._files: dict[str, File] = {}

    # -- construction --------------------------------------------------------
    def add_job(self, job: Job) -> Job:
        if job.id in self.jobs:
            raise WorkflowError(f"duplicate job id {job.id!r}")
        for f in job.outputs:
            if f.lfn in self._producer:
                raise WorkflowError(
                    f"file {f.lfn!r} produced by both "
                    f"{self._producer[f.lfn]!r} and {job.id!r}"
                )
        for f in (*job.inputs, *job.outputs):
            known = self._files.get(f.lfn)
            if known is not None and known.size != f.size:
                raise WorkflowError(
                    f"file {f.lfn!r}: inconsistent sizes {known.size} vs {f.size}"
                )
            self._files[f.lfn] = f
        self.jobs[job.id] = job
        for f in job.outputs:
            self._producer[f.lfn] = job.id
        for f in job.inputs:
            self._consumers.setdefault(f.lfn, []).append(job.id)
        self._mutated()
        return job

    def edges(self) -> set[tuple[str, str]]:
        """Data-flow edges (producer -> consumer)."""
        return {(p, c) for lfn, p in self._producer.items() for c in self._consumers.get(lfn, ())}

    # -- files ----------------------------------------------------------------
    def producer_of(self, lfn: str) -> Optional[str]:
        return self._producer.get(lfn)

    def consumers_of(self, lfn: str) -> list[str]:
        return list(self._consumers.get(lfn, ()))

    def input_files(self) -> list[File]:
        """Workflow-level inputs: files no job produces (must be staged in)."""
        return sorted(
            (f for lfn, f in self._files.items() if lfn not in self._producer),
            key=lambda f: f.lfn,
        )

    def output_files(self) -> list[File]:
        """Workflow-level outputs: produced files nobody consumes."""
        return sorted(
            (
                self._files[lfn]
                for lfn in self._producer
                if lfn not in self._consumers
            ),
            key=lambda f: f.lfn,
        )

    def transform_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for job in self.jobs.values():
            counts[job.transform] = counts.get(job.transform, 0) + 1
        return counts
