"""Metric containers for experiment runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = ["RunMetrics", "Series", "summarize_records"]


@dataclass
class RunMetrics:
    """Everything measured about one workflow run."""

    workflow_id: str
    success: bool
    makespan: float
    staging_time: float = 0.0
    compute_time: float = 0.0
    bytes_staged: float = 0.0
    transfers_executed: int = 0
    transfers_skipped: int = 0
    transfers_waited: int = 0
    peak_streams: dict = field(default_factory=dict)
    stream_grants: list = field(default_factory=list)  # per-transfer, start order
    policy_calls: int = 0
    policy_overhead: float = 0.0
    policy_stats: dict = field(default_factory=dict)
    job_durations: dict = field(default_factory=dict)
    peak_footprint: float = 0.0
    final_footprint: float = 0.0
    over_capacity_time: float = 0.0


@dataclass
class Series:
    """One experiment series: y(x) with replicate statistics.

    ``ys[i]`` holds the replicate measurements at ``xs[i]``.
    """

    label: str
    xs: list = field(default_factory=list)
    ys: list = field(default_factory=list)

    def add(self, x, replicate_values: Sequence[float]) -> None:
        values = [float(v) for v in replicate_values]
        if not values:
            raise ValueError(f"series {self.label!r}: empty replicate set at x={x}")
        self.xs.append(x)
        self.ys.append(values)

    def means(self) -> list[float]:
        return [float(np.mean(v)) for v in self.ys]

    def at(self, x) -> tuple[float, float]:
        """(mean, std) at a given x."""
        idx = self.xs.index(x)
        return float(np.mean(self.ys[idx])), float(np.std(self.ys[idx]))

    def to_dict(self) -> dict:
        return {"label": self.label, "xs": list(self.xs), "ys": [list(v) for v in self.ys]}


def summarize_records(durations: Iterable[float]) -> dict:
    """Summary statistics of a duration population."""
    arr = np.asarray(list(durations), dtype=float)
    if arr.size == 0:
        return {"count": 0}
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "std": float(arr.std()),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
    }
